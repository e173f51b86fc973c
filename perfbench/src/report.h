#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Monotonic wall clock in nanoseconds (arbitrary epoch).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// The benchmark's own input generator (splitmix64). Every generated
/// input — op type, object, coordinator, offsets, payload bytes, the crash
/// schedule — comes from here, seeded by --seed, so inputs do not change
/// when the library's own RNG does.
class InputRng {
 public:
  explicit InputRng(uint64_t seed) : s_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n), n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Exponentially distributed with the given mean.
  double Exp(double mean);

 private:
  uint64_t s_;
};

/// Derives an independent seed for sub-stream `stream` of `seed`.
uint64_t MixSeed(uint64_t seed, uint64_t stream);

/// A sample set answering nearest-rank percentiles.
class Samples {
 public:
  void Add(double v) {
    v_.push_back(v);
    sorted_ = false;
  }
  void Append(const Samples& other);
  size_t count() const { return v_.size(); }
  /// Nearest-rank percentile, p in [0, 100]; 0 when empty.
  double Percentile(double p);

 private:
  std::vector<double> v_;
  bool sorted_ = true;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  /// For percentiles: the samples behind the value, how many of them lie
  /// beyond the percentile, and the rounds it is a median over (0 for
  /// metrics that are not percentiles).
  uint64_t samples = 0;
  uint64_t beyond = 0;
  uint32_t rounds = 0;
};

/// Samples beyond percentile `rank` in a set of `n`.
uint64_t Beyond(uint64_t n, double rank);

/// A run is a sequence of rounds of fixed work, each on a fresh cluster,
/// repeated until the requested seconds have been measured. End-to-end
/// values are medians over the rounds, which keeps one disturbed round
/// from moving the result.
///
/// When `speed` is filled (simulator workloads), ops/s and set-up time are
/// also divided by the machine's speed around their round (MachineSpeed),
/// so that co-tenants slowing the whole machine down do not read as the
/// program getting slower. Latencies are never corrected.
struct RoundSeries {
  // One entry per round, all raw (not yet speed-corrected).
  std::vector<double> ops_per_s;
  std::vector<double> speed;    ///< MachineSpeed() around the round, or empty.
  std::vector<double> setup_s;  ///< Cluster construction (and start).
  std::vector<Samples> write_ms, read_ms;
  double measured_s = 0;
  uint64_t attempted = 0, failed = 0;
  /// Peak RSS (PeakRssMb) once the first round, including its output
  /// check, has run: a fixed amount of work, so the figure does not grow
  /// with how many rounds a fast machine fits into the run.
  double peak_rss_mb = 0;

  /// Called after each round's output check.
  void EndRound();
};

/// How fast this machine runs right now relative to the reference machine
/// (a 4-vCPU 2.1 GHz Xeon VM): the rate of a fixed kernel that runs none of
/// the library's code — ordered-map churn, i.e. the heap allocation and
/// pointer chasing that dominate the simulator and the protocol's
/// bookkeeping — divided by its rate on the reference machine. Runs `ops`
/// kernel steps (about 0.6 us each on the reference machine).
double MachineSpeed(uint64_t ops);

/// Everything one invocation reports: the output-check verdict, the op
/// counts and the metrics of the requested kind (end-to-end or per-layer).
struct Report {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;

  std::vector<std::string> check_failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  bool correct() const { return check_failures.empty(); }
  void Fail(const std::string& why) { check_failures.push_back(why); }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit, 0, 0, 0});
  }
  /// Adds the end-to-end metrics of `series` (ops_per_s, write/read
  /// p50/p99, ok_op_frac, setup_s) and the peak RSS.
  void AddEndToEnd(RoundSeries& series);
};

/// Median of `v` (0 when empty).
double Median(std::vector<double> v);

/// Peak resident set size of this process so far, in MiB (getrusage).
double PeakRssMb();

/// Prints the human-readable table (with sample counts) to stdout, writes
/// the full result with its machine block to `<out_dir>/<workload>-trace<t>.json`,
/// and prints the one-line JSON result as the last line of stdout.
void Emit(const Report& report, const std::string& out_dir);

/// Sums a metrics map's counters by name, folding the per-node prefix
/// "node.<id>." into "node.".
void AccumulateCounter(std::map<std::string, double>* sums,
                       const std::string& name, double value);

/// sums[name], 0 when absent.
double Get(const std::map<std::string, double>& sums, const std::string& name);

/// a / b, 0 when b is 0.
inline double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
