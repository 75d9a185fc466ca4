// perfbench_runner: runs one workload of the repository benchmark and
// prints a descriptive report line followed by a result line holding
// every metric it measured. Normally started through perfbench/run.py,
// which builds it first and picks the metrics BENCHMARK.json declares
// out of that line; see perfbench/README.md.
//
//   perfbench_runner --workload analytic|lookup|live --seed N --seconds S
//                    --trace 0|1 --work-dir DIR [--trace-out FILE]
//                    [--git-sha SHA]
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "exec/parallel.h"
#include "harness.h"

namespace perfbench {
namespace {

bool ParseArgs(int argc, char** argv, Args* args, std::string* trace_out) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else if (key == "--trace-out") {
      *trace_out = value;
    } else if (key == "--git-sha") {
      args->git_sha = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0 &&
         !args->work_dir.empty();
}

int Main(int argc, char** argv) {
  Args args;
  std::string trace_out;
  if (!ParseArgs(argc, argv, &args, &trace_out)) {
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload analytic|lookup|live "
                 "--seed N --seconds S --trace 0|1 --work-dir DIR "
                 "[--trace-out FILE] [--git-sha SHA]\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", args.work_dir.c_str());
    return 2;
  }

  Report report;
  report.Info("workload", args.workload);
  report.Info("seed", static_cast<double>(args.seed));
  report.Info("seconds", args.seconds);
  report.Info("trace", args.trace ? 1 : 0);
  report.Info("host_nproc", std::thread::hardware_concurrency());
  report.Info("host_cpu", CpuModel());
  report.Info("build_type", PERFBENCH_BUILD_TYPE);
  report.Info("max_dop", rfid::CurrentParallelPolicy().max_dop);
  report.Info("git_sha", args.git_sha.empty() ? "unknown" : args.git_sha);

  Tracer tracer;
  bool ok = false;
  if (args.workload == "analytic") {
    ok = RunAnalytic(args, &tracer, &report);
  } else if (args.workload == "lookup") {
    ok = RunLookup(args, &tracer, &report);
  } else if (args.workload == "live") {
    ok = RunLive(args, &tracer, &report);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  if (!ok) return 1;
  if (args.trace && !trace_out.empty() && !tracer.WriteSpans(trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
    return 1;
  }

  std::printf("%s\n%s\n", report.InfoJson().c_str(),
              report.ResultJson().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
