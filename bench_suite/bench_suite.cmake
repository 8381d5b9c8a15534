# Adds the bench_suite program to the repository's own CMake project, so it
# links the same cjoin_core target, with the same options, as every other
# bench. The root CMakeLists.txt does not know this directory: configure
# the root with this file as its project() include. run.py does that; by
# hand, from the repository root:
#
#   cmake -S . -B .bench_build/bench_suite \
#         -DCMAKE_PROJECT_INCLUDE=$PWD/bench_suite/bench_suite.cmake
#   cmake --build .bench_build/bench_suite --target bench_suite -j 4

# project() includes this file before the root defines cjoin_core, so the
# target is added once the root CMakeLists.txt has been read to the end.
function(cjoin_add_bench_suite)
  add_executable(bench_suite EXCLUDE_FROM_ALL
                 ${CMAKE_CURRENT_FUNCTION_LIST_DIR}/bench_suite.cpp)
  target_link_libraries(bench_suite PRIVATE cjoin_core cjoin_warnings)
endfunction()
cmake_language(DEFER CALL cjoin_add_bench_suite)
