#include "report.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory_resource>

namespace perfbench {

uint64_t InputRng::Next() {
  uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double InputRng::Exp(double mean) { return -mean * std::log1p(-Unit()); }

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  InputRng rng(seed * 0x100000001B3ull + stream);
  rng.Next();
  return rng.Next();
}

void Samples::Append(const Samples& other) {
  v_.insert(v_.end(), other.v_.begin(), other.v_.end());
  sorted_ = false;
}

double Samples::Percentile(double p) {
  if (v_.empty()) return 0;
  if (!sorted_) {
    std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  double clamped = std::clamp(p, 0.0, 100.0);
  size_t rank = static_cast<size_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(v_.size())));
  return v_[std::max<size_t>(rank, 1) - 1];
}

uint64_t Beyond(uint64_t n, double rank) {
  return static_cast<uint64_t>(
      std::floor(static_cast<double>(n) * (100.0 - rank) / 100.0));
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double MachineSpeed(uint64_t ops) {
  // Kernel ops per second on the reference machine.
  constexpr double kReferenceRate = 1.65e6;
  // The map's nodes come from a private pool over one buffer, so the
  // kernel neither depends on nor disturbs the state of the process heap
  // the library allocates from. The map persists across calls at its
  // steady-state size (about 32k live keys), so short and long calls
  // measure the same thing.
  struct Kernel {
    std::vector<std::byte> arena = std::vector<std::byte>(4u << 20);
    std::pmr::monotonic_buffer_resource buffer{arena.data(), arena.size()};
    std::pmr::unsynchronized_pool_resource pool{&buffer};
    std::pmr::map<uint64_t, uint64_t> map{&pool};
    InputRng rng{42};
    void Run(uint64_t n) {
      for (uint64_t i = 0; i < n; ++i) {
        map[rng.Below(1 << 16)] += i;
        map.erase(rng.Below(1 << 16));
      }
    }
  };
  static Kernel* kernel = [] {
    auto* k = new Kernel;
    k->Run(200000);
    return k;
  }();
  const int64_t t0 = NowNs();
  kernel->Run(ops);
  const double seconds = static_cast<double>(NowNs() - t0) / 1e9;
  return static_cast<double>(ops) / seconds / kReferenceRate;
}

void RoundSeries::EndRound() {
  if (ops_per_s.size() == 1) peak_rss_mb = PeakRssMb();
}

void Report::AddEndToEnd(RoundSeries& s) {
  attempted = s.attempted;
  failed = s.failed;
  const size_t n = s.ops_per_s.size();
  const uint32_t rounds = static_cast<uint32_t>(n);
  std::vector<double> ops(n), setup(n);
  for (size_t i = 0; i < n; ++i) {
    const double speed = s.speed.empty() ? 1.0 : s.speed[i];
    ops[i] = s.ops_per_s[i] / speed;
    setup[i] = s.setup_s[i] * speed;
  }
  Add("ops_per_s", Median(ops), "1/s");
  auto percentile = [&](const char* name, std::vector<Samples>& per_round,
                        double rank) {
    std::vector<double> values;
    Metric m{name, 0, "ms", 0, 0, rounds};
    for (size_t i = 0; i < per_round.size(); ++i) {
      values.push_back(per_round[i].Percentile(rank));
      m.samples += per_round[i].count();
      m.beyond += Beyond(per_round[i].count(), rank);
    }
    m.value = Median(values);
    metrics.push_back(m);
  };
  percentile("write_p50_ms", s.write_ms, 50);
  percentile("write_p99_ms", s.write_ms, 99);
  percentile("read_p50_ms", s.read_ms, 50);
  percentile("read_p99_ms", s.read_ms, 99);
  Add("ok_op_frac",
      attempted ? static_cast<double>(attempted - failed) /
                      static_cast<double>(attempted)
                : 0,
      "ratio");
  metrics.push_back(Metric{"setup_s", Median(setup), "s", n, Beyond(n, 50),
                           rounds});
  Add("peak_rss_mb", s.peak_rss_mb, "MiB");

  auto list = [](const char* label, const std::vector<double>& v,
                 const char* fmt) {
    std::string out = label;
    for (double x : v) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), fmt, x);
      out += buf;
    }
    return out;
  };
  notes.push_back(list("raw ops_per_s by round:", s.ops_per_s, " %.1f"));
  if (!s.speed.empty()) {
    notes.push_back(list("machine speed by round:", s.speed, " %.4f"));
  }
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void AccumulateCounter(std::map<std::string, double>* sums,
                       const std::string& name, double value) {
  std::string key = name;
  if (name.rfind("node.", 0) == 0) {
    size_t dot = name.find('.', 5);
    if (dot != std::string::npos) key = "node." + name.substr(dot + 1);
  }
  (*sums)[key] += value;
}

double Get(const std::map<std::string, double>& sums,
           const std::string& name) {
  auto it = sums.find(name);
  return it == sums.end() ? 0 : it->second;
}

namespace {

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string MetricsJson(const Report& r, bool with_samples) {
  std::string out = "{";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i) out += ", ";
    out += Quote(m.name) + ": {\"value\": " + Num(m.value) +
           ", \"unit\": " + Quote(m.unit);
    if (with_samples && m.samples > 0) {
      out += ", \"samples\": " + std::to_string(m.samples) +
             ", \"samples_beyond\": " + std::to_string(m.beyond);
      if (m.rounds > 0) {
        out += ", \"median_of_rounds\": " + std::to_string(m.rounds);
      }
    }
    out += "}";
  }
  return out + "}";
}

}  // namespace

void Emit(const Report& r, const std::string& out_dir) {
  std::printf("# workload %s  seed %llu  seconds %g  trace %d\n",
              r.workload.c_str(), static_cast<unsigned long long>(r.seed),
              r.seconds, r.trace ? 1 : 0);
  std::printf("# %-34s %16s %-13s %9s %7s %6s\n", "metric", "value",
              "unit", "samples", "beyond", "rounds");
  for (const Metric& m : r.metrics) {
    if (m.samples > 0) {
      std::printf("# %-34s %16.6f %-13s %9llu %7llu %6u\n", m.name.c_str(),
                  m.value, m.unit.c_str(),
                  static_cast<unsigned long long>(m.samples),
                  static_cast<unsigned long long>(m.beyond), m.rounds);
    } else {
      std::printf("# %-34s %16.6f %-13s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  for (const std::string& note : r.notes) std::printf("# note: %s\n", note.c_str());
  for (const std::string& f : r.check_failures) {
    std::printf("# CHECK FAILED: %s\n", f.c_str());
  }

  std::string machine = "{\"nproc\": " +
                        std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                        ", \"compiler\": " + Quote(Compiler()) +
                        ", \"build_type\": " + Quote(PERFBENCH_BUILD_TYPE) +
                        "}";
  std::string checks = "[";
  for (size_t i = 0; i < r.check_failures.size(); ++i) {
    checks += (i ? ", " : "") + Quote(r.check_failures[i]);
  }
  checks += "]";
  std::string notes = "[";
  for (size_t i = 0; i < r.notes.size(); ++i) {
    notes += (i ? ", " : "") + Quote(r.notes[i]);
  }
  notes += "]";

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  const std::string path =
      out_dir + "/" + r.workload + "-trace" + (r.trace ? "1" : "0") + ".json";
  std::ofstream file(path);
  file << "{\"workload\": " << Quote(r.workload) << ", \"seed\": " << r.seed
       << ", \"seconds\": " << Num(r.seconds)
       << ", \"trace\": " << (r.trace ? 1 : 0) << ", \"machine\": " << machine
       << ", \"correct\": " << (r.correct() ? "true" : "false")
       << ", \"check_failures\": " << checks << ", \"notes\": " << notes
       << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
       << ", \"metrics\": " << MetricsJson(r, true) << "}\n";
  if (file) std::printf("# result written to %s\n", path.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              r.correct() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              MetricsJson(r, false).c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
