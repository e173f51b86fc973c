// dcp_perfbench: the replicated-object benchmark.
//
//   dcp_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--out <dir>]
//
// Workloads: sock_small, sock_partial_4k (socket backend) and
// sim_durable_churn (simulator backend); perfbench/NOTES.md says why each
// was chosen. --trace 0 prints the end-to-end metrics, --trace 1 the
// per-layer metrics of a separate traced run. Either way the outputs are
// checked (linearizability audit of the full client history plus backend
// invariants) and the last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// The exit code is 0 only when the output check passed.

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "report.h"
#include "workloads.h"

namespace {

/// Confines the process, before any thread starts, to the last two CPUs it
/// may use. The socket workloads are chains of thread wake-ups; spread over
/// every vCPU of a shared host they pay wake-up costs that swing with the
/// host's load from one minute to the next, while on two CPUs they are
/// steady. Returns the CPUs used (empty when the process has two or fewer).
std::vector<int> ConfineToTwoCpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return {};
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (cpus.size() <= 2) return {};
  cpus.erase(cpus.begin(), cpus.end() - 2);
  cpu_set_t two;
  CPU_ZERO(&two);
  for (int c : cpus) CPU_SET(c, &two);
  if (sched_setaffinity(0, sizeof(two), &two) != 0) return {};
  return cpus;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "dcp_perfbench: %s\nusage: dcp_perfbench --workload "
               "<sock_small|sock_partial_4k|sim_durable_churn> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions o;
  o.out_dir = "perfbench/out";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed takes an integer");
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0)) {
        return Usage("--seconds takes a positive number");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      o.trace = value == "1";
    } else if (arg == "--out") {
      o.out_dir = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }

  const std::vector<int> cpus = ConfineToTwoCpus();
  perfbench::Report report;
  report.workload = o.workload;
  report.seed = o.seed;
  report.seconds = o.seconds;
  report.trace = o.trace;
  if (!cpus.empty()) {
    report.notes.push_back("confined to CPUs " + std::to_string(cpus[0]) +
                           " and " + std::to_string(cpus[1]));
  }
  if (o.workload == "sock_small" || o.workload == "sock_partial_4k") {
    perfbench::RunSocketWorkload(o, &report);
  } else if (o.workload == "sim_durable_churn") {
    perfbench::RunSimWorkload(o, &report);
  } else {
    return Usage(("unknown workload '" + o.workload + "'").c_str());
  }
  perfbench::Emit(report, o.out_dir);
  return report.correct() ? 0 : 1;
}
