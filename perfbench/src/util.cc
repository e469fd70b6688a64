#include "util.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

extern char** environ;

namespace perfbench {

using d3l::Result;
using d3l::Status;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

void ResultLine::Set(const std::string& name, const std::string& unit, double value) {
  if (values_.count(name) == 0) order_.push_back(name);
  values_[name] = {unit, value};
}

double ResultLine::Value(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0 : it->second.second;
}

std::string ResultLine::Json(bool correct, uint64_t attempted, uint64_t failed) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < order_.size(); ++i) {
    const auto& [unit, value] = values_.at(order_[i]);
    char num[64];
    std::snprintf(num, sizeof(num), "%.10g", std::isfinite(value) ? value : 0.0);
    out << (i ? ", " : "") << "\"" << order_[i] << "\": {\"value\": " << num
        << ", \"unit\": \"" << unit << "\"}";
  }
  out << "}}";
  return out.str();
}

Result<Child> Child::Spawn(const std::vector<std::string>& argv,
                           const std::string& stdout_path) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, stdout_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  Child child;
  const int rc = posix_spawn(&child.pid_, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    child.pid_ = -1;
    return Status::IOError("cannot start " + argv[0] + ": " + std::strerror(rc));
  }
  return child;
}

Child::Child(Child&& other) noexcept : pid_(other.pid_) { other.pid_ = -1; }

Child& Child::operator=(Child&& other) noexcept {
  if (this != &other) {
    Kill();
    pid_ = other.pid_;
    other.pid_ = -1;
  }
  return *this;
}

Status Child::Wait() {
  if (pid_ < 0) return Status::OK();
  int wstatus = 0;
  pid_t r;
  do {
    r = ::waitpid(pid_, &wstatus, 0);
  } while (r < 0 && errno == EINTR);
  const pid_t pid = pid_;
  pid_ = -1;
  if (r != pid) return Status::IOError("waitpid failed");
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    return Status::Internal("child " + std::to_string(pid) + " failed (status " +
                            std::to_string(wstatus) + ")");
  }
  return Status::OK();
}

Child::~Child() { Kill(); }

void Child::Kill() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int wstatus = 0;
    while (::waitpid(pid_, &wstatus, 0) < 0 && errno == EINTR) {
    }
  }
  pid_ = -1;
}

uint64_t StatusKb(pid_t pid, const char* field) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  const size_t n = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0 && line.size() > n && line[n] == ':') {
      return std::strtoull(line.c_str() + n + 1, nullptr, 10);
    }
  }
  return 0;
}

double CpuSeconds(pid_t pid) {
  if (pid == 0) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  }
  // /proc/<pid>/stat: utime and stime are fields 14 and 15, counted after
  // the parenthesised command name (which may itself contain spaces).
  const std::string stat = ReadFile("/proc/" + std::to_string(pid) + "/stat");
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream in(stat.substr(close + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int i = 3; i <= 15 && (in >> field); ++i) {
    if (i == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (i == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
  }
  return static_cast<double>(utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

uint64_t FileBytes(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

std::string SelfDir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return ".";
  std::string path(buf, static_cast<size_t>(n));
  return path.substr(0, path.rfind('/'));
}

Spans& Spans::Get() {
  static Spans spans;
  return spans;
}

Spans::Buffer& Spans::Local() {
  thread_local Buffer* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    local = buffers_.back().get();
    local->thread = buffers_.size() - 1;
  }
  return *local;
}

int64_t Spans::Begin(const char* name, uint64_t query) {
  if (!enabled_) return -1;
  Buffer& b = Local();
  Span s;
  s.name = name;
  s.query = query;
  s.thread = b.thread;
  s.parent = b.open.empty() ? -1 : b.open.back();
  s.start = Now();
  b.spans.push_back(s);
  const int64_t handle = static_cast<int64_t>(b.spans.size()) - 1;
  b.open.push_back(handle);
  return handle;
}

void Spans::End(int64_t handle) {
  if (!enabled_ || handle < 0) return;
  Buffer& b = Local();
  b.spans[static_cast<size_t>(handle)].end = Now();
  if (!b.open.empty() && b.open.back() == handle) b.open.pop_back();
}

std::map<std::string, Spans::Totals> Spans::Aggregate() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, Totals> totals;
  for (const auto& b : buffers_) {
    // Child time per span, so self time = duration - covered child time.
    // Children of one parent run on the parent's thread one after another,
    // so their durations do not overlap and simply add.
    std::vector<double> child(b->spans.size(), 0);
    for (const Span& s : b->spans) {
      if (s.parent >= 0) child[static_cast<size_t>(s.parent)] += s.end - s.start;
    }
    for (size_t i = 0; i < b->spans.size(); ++i) {
      const Span& s = b->spans[i];
      Totals& t = totals[s.name];
      t.count += 1;
      t.seconds += s.end - s.start;
      t.self_seconds += (s.end - s.start) - child[i];
    }
  }
  return totals;
}

Status Spans::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot write " + path);
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans) {
      std::fprintf(f,
                   "{\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                   "\"parent\": %lld, \"query\": %llu, \"thread\": %zu}\n",
                   s.name, s.start, s.end, static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.query), s.thread);
    }
  }
  if (std::fclose(f) != 0) return Status::IOError("close failed for " + path);
  return Status::OK();
}

}  // namespace perfbench
