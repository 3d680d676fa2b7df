// queryer_perfbench: the bench of record's binary.
//
//   queryer_perfbench version
//   queryer_perfbench prepare --workload W --seed N --dir D
//   queryer_perfbench run --workload W --seed N --seconds S --dir D
//                         --trace 0|1 [--trace-out FILE]
//
// `prepare` generates the workload's inputs under D (untimed, in its own
// process); `run` measures and prints one JSON record as its last line.
// perfbench/run.py drives both; see ../README.md.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: queryer_perfbench prepare|run --workload "
               "cold_dedup|warm_read --seed N --dir DIR "
               "[--seconds S] [--trace 0|1] [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "version") == 0) {
    std::printf("{\"compiler\":\"%s\",\"build_type\":\"%s\"}\n",
                PERFBENCH_CXX_COMPILER, PERFBENCH_BUILD_TYPE);
    return 0;
  }
  if (argc < 2) return Usage();
  perfbench::Args args;
  args.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--dir") {
      args.dir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return Usage();
    }
  }
  const bool known =
      args.workload == "cold_dedup" || args.workload == "warm_read";
  if (!known || args.dir.empty() || !(args.seconds > 0)) return Usage();
  if (args.mode == "prepare") return perfbench::Prepare(args);
  if (args.mode != "run") return Usage();
  if (args.workload == "cold_dedup") return perfbench::RunColdDedup(args);
  return perfbench::RunWarmRead(args);
}
