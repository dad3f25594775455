/**
 * @file
 * Workload child for end-to-end runs: drives one workload through the
 * process's malloc/free and prints one JSON result line.  It links no
 * allocator code, so run.py measures libhoard.so by starting it under
 * LD_PRELOAD and glibc by starting it without.
 *
 *   perfbench_load --workload ring-private --seed 1 --seconds 2
 *                  [--spin-ns N]
 */

#include <cstdlib>
#include <string>

#include "args.h"
#include "workloads.h"

namespace {

struct SystemApi
{
    void* malloc(std::size_t size) { return std::malloc(size); }
    void free(void* p) { std::free(p); }
};

}  // namespace

int
main(int argc, char** argv)
{
    perfbench::Args args;
    if (!perfbench::parse_args(argc, argv, &args))
        return 2;
    SystemApi api;
    perfbench::Runner<SystemApi> runner(api, args.run);
    perfbench::RunResult result = runner.run();
    perfbench::print_result(args.workload.c_str(), result);
    return 0;
}
