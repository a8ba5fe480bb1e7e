// Small helpers for the perfbench program: clocks, order statistics, the
// X-Vchain-Trace field reader, process counters, the machine fingerprint and
// the crypto calibration calls. Nothing here touches the program under test
// beyond its public headers.

#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/rand.h"
#include "crypto/bn254.h"
#include "crypto/pairing.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linear-interpolated quantile (the same rule as numpy's default); 0 for
/// an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Reads one top-level numeric field of the server's X-Vchain-Trace JSON
/// (core/query_trace.h ToJson). The span list that follows the flat fields
/// is cut off first, so a span attribute can never shadow a stage field.
inline bool TraceField(const std::string& json, const char* key,
                       double* out) {
  const std::string flat = json.substr(0, json.find("\"spans\""));
  const std::string needle = std::string("\"") + key + "\":";
  const size_t at = flat.find(needle);
  if (at == std::string::npos) return false;
  *out = std::strtod(flat.c_str() + at + needle.size(), nullptr);
  return true;
}

/// User + system CPU seconds of this process so far.
inline double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// Peak resident set (VmHWM) in MiB.
inline double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

inline long NumCpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? n : 1;
}

inline std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ') ++b;
        return line.substr(b);
      }
    }
  }
  return "unknown";
}

inline std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Comma-separated numbers for a JSON array body.
inline std::string JoinNumbers(const std::vector<double>& v) {
  std::string out;
  for (double x : v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.4f", out.empty() ? "" : ", ", x);
    out += buf;
  }
  return out;
}

/// JSON string literal body (quotes and backslashes escaped, control
/// characters dropped).
inline std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out.push_back(c);
    }
  }
  return out;
}

struct Calibration {
  double g1_mul_us = 0;
  double pairing_ms = 0;
};

/// Times one G1 scalar multiplication and one pairing (median of a few
/// seeded repetitions each), so a result from another machine can be
/// normalised by the machine's own crypto speed.
inline Calibration Calibrate(uint64_t seed) {
  using vchain::crypto::Fr;
  vchain::Rng rng(seed ^ 0xCA11B4A7E5EEDULL);
  auto scalar = [&rng] {
    return Fr::FromUint64(rng.Next()) * Fr::FromUint64(rng.Next() | 1);
  };
  std::vector<double> mul_us;
  for (int i = 0; i < 15; ++i) {
    const Fr k = scalar();
    const auto t0 = Clock::now();
    volatile bool inf = vchain::crypto::G1Mul(k).IsInfinity();
    (void)inf;
    mul_us.push_back(MsBetween(t0, Clock::now()) * 1e3);
  }
  const auto p = vchain::crypto::G1Mul(scalar()).ToAffine();
  const auto q = vchain::crypto::G2Mul(scalar()).ToAffine();
  std::vector<double> pair_ms;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    volatile bool one = vchain::crypto::Pairing(p, q).IsOne();
    (void)one;
    pair_ms.push_back(MsBetween(t0, Clock::now()));
  }
  return {Quantile(mul_us, 0.5), Quantile(pair_ms, 0.5)};
}

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
