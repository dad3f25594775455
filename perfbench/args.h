/**
 * @file
 * Command line shared by the two benchmark programs.
 */

#ifndef PERFBENCH_ARGS_H_
#define PERFBENCH_ARGS_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace perfbench {

struct Args
{
    std::string workload;
    RunConfig run;
    std::string mode;        ///< inproc only: untraced | traced | env
    std::string spans_path;  ///< inproc traced only: span output file
};

/**
 * Parses `--workload W --seed N --seconds S [--spin-ns N] [--mode M]
 * [--spans FILE]`.  Reports the first bad argument and returns false.
 */
inline bool
parse_args(int argc, char** argv, Args* out)
{
    for (int i = 1; i < argc; ++i) {
        const char* key = argv[i];
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", key);
            return false;
        }
        const char* value = argv[++i];
        char* end = nullptr;
        bool ok = true;
        if (std::strcmp(key, "--workload") == 0) {
            out->workload = value;
        } else if (std::strcmp(key, "--seed") == 0) {
            out->run.seed = std::strtoull(value, &end, 10);
        } else if (std::strcmp(key, "--seconds") == 0) {
            out->run.seconds = std::strtod(value, &end);
            ok = out->run.seconds > 0 && out->run.seconds < 3600;
        } else if (std::strcmp(key, "--spin-ns") == 0) {
            out->run.spin_ns = std::strtoull(value, &end, 10);
        } else if (std::strcmp(key, "--mode") == 0) {
            out->mode = value;
        } else if (std::strcmp(key, "--spans") == 0) {
            out->spans_path = value;
        } else {
            std::fprintf(stderr, "unknown argument %s\n", key);
            return false;
        }
        if (!ok || (end != nullptr && (end == value || *end != '\0'))) {
            std::fprintf(stderr, "bad value for %s: %s\n", key, value);
            return false;
        }
    }
    if (out->mode == "env")
        return true;
    if (!parse_workload(out->workload, &out->run.workload)) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     out->workload.c_str());
        return false;
    }
    out->run.threads = workload_threads(out->run.workload);
    return true;
}

}  // namespace perfbench

#endif  // PERFBENCH_ARGS_H_
