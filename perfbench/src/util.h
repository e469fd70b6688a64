// Small helpers shared by the benchmark's roles: clocks and order
// statistics, the result line, child processes, /proc readings and the
// in-memory span recorder.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// Monotonic seconds.
double Now();

/// Median of a non-empty sample (mean of the middle pair for even sizes).
double Median(std::vector<double> v);

/// Nearest-rank percentile, q in (0, 1]: the smallest sample with at least
/// q * n samples at or below it. With n >= 1000 and q = 0.99, at least ten
/// samples lie above it.
double Percentile(std::vector<double> v, double q);

double Mean(const std::vector<double>& v);

/// Metrics in the order they were added, printed as the last stdout line:
/// {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
class ResultLine {
 public:
  void Set(const std::string& name, const std::string& unit, double value);
  /// The value of a metric already set (0 if absent).
  double Value(const std::string& name) const;
  std::string Json(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<std::string, double>> values_;
};

/// A spawned child process. Standard input is /dev/null; standard output
/// goes to `stdout_path`.
class Child {
 public:
  static d3l::Result<Child> Spawn(const std::vector<std::string>& argv,
                                  const std::string& stdout_path);
  Child() = default;
  Child(Child&& other) noexcept;
  Child& operator=(Child&& other) noexcept;
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  /// Waits for the exit. Fails unless the child exited with code 0.
  d3l::Status Wait();
  /// Kills a still-running child and reaps it.
  ~Child();

  pid_t pid() const { return pid_; }

 private:
  void Kill();

  pid_t pid_ = -1;
};

/// A field of /proc/<pid>/status in kB (pid 0 = this process), or 0.
uint64_t StatusKb(pid_t pid, const char* field);

/// User + system CPU seconds consumed so far by `pid` (0 = this process).
double CpuSeconds(pid_t pid);

std::string ReadFile(const std::string& path);
uint64_t FileBytes(const std::string& path);
/// The directory holding this executable.
std::string SelfDir();

/// Span recorder: every thread appends to its own buffer; spans nest through
/// a per-thread stack, so a span's parent is the innermost open span of the
/// same thread. All spans of one query carry the same query id.
class Spans {
 public:
  struct Span {
    const char* name = "";
    double start = 0;
    double end = 0;
    int64_t parent = -1;  ///< index into the same thread's buffer, or -1
    uint64_t query = 0;
    size_t thread = 0;
  };

  /// Process-wide recorder; while disabled every call is a no-op. Toggle
  /// only while no spans are open.
  static Spans& Get();
  void Enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens a span on the calling thread; returns a handle for End.
  int64_t Begin(const char* name, uint64_t query);
  void End(int64_t handle);

  struct Totals {
    size_t count = 0;
    double seconds = 0;       ///< summed duration
    double self_seconds = 0;  ///< summed duration minus covered child time
  };
  /// Per span name, over every recorded span.
  std::map<std::string, Totals> Aggregate() const;
  /// One line per span: name, start, end, parent, query id, thread.
  d3l::Status WriteJsonLines(const std::string& path) const;

 private:
  struct Buffer {
    std::vector<Span> spans;
    std::vector<int64_t> open;
    size_t thread = 0;
  };
  Buffer& Local();

  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span around one call into a layer.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, uint64_t query)
      : handle_(Spans::Get().Begin(name, query)) {}
  ~ScopedSpan() { Spans::Get().End(handle_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t handle_;
};

}  // namespace perfbench
