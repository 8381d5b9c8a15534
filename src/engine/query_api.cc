#include "engine/query_api.h"

namespace cjoin {

Completion::Completion()
    : submit_ns(QueryRuntime::NowNs()), future_(promise_.get_future()) {}

void Completion::BindWaiter(std::function<void()> cancel) {
  MutexLock lk(&mu_);
  if (backend_bound_ || resolved_.load()) return;
  cancel_hook_ = std::move(cancel);
}

void Completion::BindBackend(std::function<void()> cancel) {
  {
    MutexLock lk(&mu_);
    backend_bound_ = true;
    if (resolved_.load()) return;  // nothing left to cancel; drop the hook
    cancel_hook_ = std::move(cancel);
    if (!cancel_requested_) return;
    cancel = cancel_hook_;
  }
  cancel();
}

void Completion::BindHandle(std::unique_ptr<QueryHandle> handle) {
  query_id_.store(handle->query_id(), std::memory_order_relaxed);
  set_snapshot(handle->snapshot());
  QueryHandle* h = handle.get();
  {
    MutexLock lk(&mu_);
    handle_ = std::move(handle);
  }
  BindBackend([h] { h->Cancel(); });
}

void Completion::Cancel() {
  // The hook runs off the lock: the waiter's re-enters Reject() through
  // the admission controller's grant path.
  std::function<void()> hook;
  {
    MutexLock lk(&mu_);
    cancel_requested_ = true;
    hook = cancel_hook_;
  }
  if (hook) hook();
}

void Completion::Resolve(Result<ResultSet> result, bool reached_backend) {
  if (resolved_.exchange(true, std::memory_order_acq_rel)) return;
  reached_backend_.store(reached_backend, std::memory_order_release);
  done_ns_.store(QueryRuntime::NowNs(), std::memory_order_release);
  if (finalizer && (reached_backend || slot_held())) finalizer(*this, result);
  std::function<void()> hook;
  {
    MutexLock lk(&mu_);
    hook.swap(cancel_hook_);
  }
  promise_.set_value(std::move(result));
  ready_.store(true, std::memory_order_release);
}

double Completion::ResponseSeconds() const {
  const int64_t done = done_ns();
  return done > submit_ns ? static_cast<double>(done - submit_ns) * 1e-9
                          : 0.0;
}

double Completion::SubmissionSeconds() const {
  MutexLock lk(&mu_);
  const double pipeline = handle_ != nullptr ? handle_->SubmissionSeconds()
                                             : 0.0;
  if (pipeline <= 0.0) return 0.0;
  return static_cast<double>(queue_end_ns() - submit_ns) * 1e-9 + pipeline;
}

}  // namespace cjoin
