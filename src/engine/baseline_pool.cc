#include "engine/baseline_pool.h"

#include <algorithm>
#include <chrono>
#include <set>

#include "engine/query_api.h"
#include "obs/flight_recorder.h"

namespace cjoin {

BaselinePool::BaselinePool(size_t workers, size_t max_queued)
    : max_queued_(max_queued) {
  const size_t n = std::max<size_t>(1, workers);
  threads_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] {
      obs::RegisterThread("base" + std::to_string(i));
      WorkerLoop();
    });
  }
  sweeper_ = std::thread([this] {
    obs::RegisterThread("sweep");
    SweeperLoop();
  });
}

BaselinePool::~BaselinePool() { Shutdown(); }

Status BaselinePool::Enqueue(std::shared_ptr<BaselineJob> job) {
  {
    MutexLock lk(&mu_);
    if (shutdown_) return Status::Aborted("baseline pool shut down");
    if (max_queued_ != 0 && queue_.size() >= max_queued_) {
      return Status::ResourceExhausted(
          "baseline pool queue full (" + std::to_string(max_queued_) + ")");
    }
    job->seq = next_seq_++;
    queue_.push_back(job);
    watched_.push_back(std::move(job));
    obs::MetricsRegistry::Global()
        .GetGauge("baseline_pool_queue_depth", "Jobs waiting in the pool")
        ->Set(static_cast<int64_t>(queue_.size()));
  }
  cv_.NotifyAll();
  return Status::OK();
}

void BaselinePool::Shutdown() {
  // `watched_` is the superset: queued AND running jobs. Every unresolved
  // job resolves kAborted now, and the cancel flag interrupts running
  // executors at their next batch boundary so the worker join below is
  // prompt (mirroring CJoinOperator::Stop()).
  std::vector<std::shared_ptr<BaselineJob>> unresolved;
  {
    MutexLock lk(&mu_);
    if (shutdown_) return;
    shutdown_ = true;
    queue_.clear();
    unresolved.swap(watched_);
  }
  cv_.NotifyAll();
  for (auto& job : unresolved) {
    job->cancel.store(true, std::memory_order_release);
    job->completion->Finish(Status::Aborted("baseline pool shut down"));
  }
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  if (sweeper_.joinable()) sweeper_.join();
}

size_t BaselinePool::queued() const {
  MutexLock lk(&mu_);
  return queue_.size();
}

std::shared_ptr<BaselineJob> BaselinePool::PopBestLocked() {
  if (queue_.empty()) return nullptr;

  // Start-time fair queueing: pick the queued tenant with the smallest
  // virtual time. A tenant first seen (or returning after idle) starts at
  // the floor — the minimum vtime currently in service — so it competes
  // fairly from now on instead of replaying banked idle credit.
  const std::string* chosen_tenant = nullptr;
  double chosen_vtime = 0.0;
  for (const auto& job : queue_) {
    auto [it, inserted] = vtimes_.try_emplace(job->tenant, vclock_floor_);
    if (it->second < vclock_floor_) it->second = vclock_floor_;
    if (chosen_tenant == nullptr || it->second < chosen_vtime) {
      chosen_tenant = &job->tenant;
      chosen_vtime = it->second;
    }
  }

  // Within the tenant: (priority desc, seq asc) — the pre-tenancy order.
  size_t best = queue_.size();
  for (size_t i = 0; i < queue_.size(); ++i) {
    if (queue_[i]->tenant != *chosen_tenant) continue;
    if (best == queue_.size() ||
        queue_[i]->priority > queue_[best]->priority ||
        (queue_[i]->priority == queue_[best]->priority &&
         queue_[i]->seq < queue_[best]->seq)) {
      best = i;
    }
  }
  std::shared_ptr<BaselineJob> job = std::move(queue_[best]);
  queue_.erase(queue_.begin() + static_cast<ptrdiff_t>(best));

  // Charge the tenant one job-length of virtual time, scaled by weight,
  // and advance the floor so later arrivals cannot undercut history.
  const double weight = job->fair_weight > 0.0 ? job->fair_weight : 1.0;
  vtimes_[job->tenant] = chosen_vtime + 1.0 / weight;
  vclock_floor_ = std::max(vclock_floor_, chosen_vtime);

  // Every entry sits within one weighted job of the floor (each charge
  // sets vtime = chosen + 1/w with floor >= chosen), so dropping an idle
  // tenant's entry refunds at most one job of credit — harmless, and it
  // keeps unique tenant strings from growing the clock map without
  // bound. Queued tenants keep their clocks.
  if (vtimes_.size() > 256 && vtimes_.size() > 2 * queue_.size()) {
    std::set<std::string> queued_tenants;
    for (const auto& queued_job : queue_) {
      queued_tenants.insert(queued_job->tenant);
    }
    for (auto it = vtimes_.begin(); it != vtimes_.end();) {
      if (queued_tenants.count(it->first) == 0) {
        it = vtimes_.erase(it);
      } else {
        ++it;
      }
    }
  }
  return job;
}

void BaselinePool::WorkerLoop() {
  for (;;) {
    std::shared_ptr<BaselineJob> job;
    {
      MutexLock lk(&mu_);
      while (!shutdown_ && queue_.empty()) {
        cv_.Wait(mu_);
      }
      if (shutdown_) return;
      job = PopBestLocked();
      if (job == nullptr) continue;
      obs::MetricsRegistry::Global()
          .GetGauge("baseline_pool_queue_depth", "Jobs waiting in the pool")
          ->Set(static_cast<int64_t>(queue_.size()));
    }

    const int64_t now = QueryRuntime::NowNs();
    job->completion->MarkQueueEnd(now);
    Result<ResultSet> result = [&]() -> Result<ResultSet> {
      if (job->cancel.load(std::memory_order_acquire)) {
        return Status::Cancelled("baseline query cancelled while queued");
      }
      if (job->deadline_ns != 0 && now >= job->deadline_ns) {
        return Status::DeadlineExceeded(
            "baseline query deadline expired while queued");
      }
      QatOptions opts = job->options;
      opts.cancel = &job->cancel;
      opts.deadline_ns = job->deadline_ns;
      return ExecuteStarQuery(job->spec, opts);
    }();
    // The sweeper may have resolved it already (cancel/deadline); first
    // caller wins.
    job->completion->Finish(std::move(result));
  }
}

void BaselinePool::SweeperLoop() {
  // Resolves cancelled / deadline-expired jobs promptly — also while they
  // are still queued behind busy workers — at a cadence matching the
  // CJOIN path's per-scan-run interrupt granularity.
  constexpr auto kSweepInterval = std::chrono::milliseconds(5);
  MutexLock lk(&mu_);
  while (!shutdown_) {
    // One sweep interval per iteration; a shutdown notification cuts the
    // nap short (spurious wakeups just sweep early — harmless).
    const auto deadline = std::chrono::steady_clock::now() + kSweepInterval;
    while (!shutdown_ &&
           cv_.WaitUntil(mu_, deadline) != std::cv_status::timeout) {
    }
    if (shutdown_) break;
    const int64_t now = QueryRuntime::NowNs();
    for (size_t i = 0; i < watched_.size();) {
      BaselineJob& job = *watched_[i];
      Status terminal = Status::OK();
      if (job.cancel.load(std::memory_order_acquire)) {
        terminal = Status::Cancelled("baseline query cancelled");
      } else if (job.deadline_ns != 0 && now >= job.deadline_ns) {
        terminal = Status::DeadlineExceeded(
            "baseline query deadline expired");
      }
      bool done = false;
      if (!terminal.ok()) {
        // Signal the executor too (deadline case), then resolve.
        job.cancel.store(true, std::memory_order_release);
        job.completion->Finish(std::move(terminal));
        done = true;
      } else if (job.completion->Ready()) {
        done = true;  // worker finished it; stop watching
      }
      if (done) {
        watched_[i] = std::move(watched_.back());
        watched_.pop_back();
      } else {
        ++i;
      }
    }
  }
}

}  // namespace cjoin
