#include "inputs.hpp"

#include <fcntl.h>
#include <malloc.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "detectors/arcane.hpp"
#include "detectors/sentinel.hpp"
#include "httplog/clf.hpp"
#include "util/rss.hpp"
#include "workload/catalog.hpp"
#include "workload/engine.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;
constexpr std::size_t kWriteChunk = 1 << 20;

std::uint64_t fnv_update(std::uint64_t h, const char* data, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= kFnvPrime;
  }
  return h;
}

/// One output log: an append buffer flushed to the descriptor in
/// kWriteChunk pieces, hashed as it goes.
struct OutFile {
  std::string path;
  int fd = -1;
  std::string buf;
  std::uint64_t hash = kFnvBasis;
  std::uint64_t flushed = 0;
  divscrape::httplog::ClfFormatter formatter;

  OutFile() = default;
  OutFile(const OutFile&) = delete;
  OutFile& operator=(const OutFile&) = delete;
  ~OutFile() {
    if (fd >= 0) ::close(fd);
  }

  void flush() {
    hash = fnv_update(hash, buf.data(), buf.size());
    std::size_t done = 0;
    while (done < buf.size()) {
      const ssize_t n = ::write(fd, buf.data() + done, buf.size() - done);
      if (n < 0) throw std::runtime_error("cannot write " + path);
      done += static_cast<std::size_t>(n);
    }
    flushed += buf.size();
    buf.clear();
  }
};

}  // namespace

GeneratedLogs generate_logs(const GenerateRequest& request) {
  auto spec = divscrape::workload::catalog_entry(request.scenario,
                                                 request.scale);
  if (!spec) throw std::runtime_error("unknown scenario " + request.scenario);
  spec->seed = request.seed;

  divscrape::workload::EngineConfig config;
  config.gen_threads = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, 4);
  // The CLI's rule: megasite-class populations only fit lazily.
  config.lazy_actors =
      divscrape::workload::static_population(*spec) >= 200'000;

  std::vector<std::unique_ptr<OutFile>> outs;
  const std::size_t files = request.per_vhost ? spec->vhosts.size() : 1;
  for (std::size_t v = 0; v < files; ++v) {
    auto out = std::make_unique<OutFile>();
    out->path = request.dir + "/" +
                (request.per_vhost
                     ? "v" + std::to_string(v) + "_" + spec->vhosts[v].name
                     : request.scenario) +
                ".log";
    out->fd = ::open(out->path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (out->fd < 0) throw std::runtime_error("cannot create " + out->path);
    out->buf.reserve(kWriteChunk + 4096);
    outs.push_back(std::move(out));
  }

  GeneratedLogs logs;
  divscrape::workload::WorkloadEngine engine(std::move(*spec), config);
  (void)engine.run([&](divscrape::httplog::LogRecord&& record) {
    if (logs.records >= request.max_records) {
      engine.request_stop();
      return;
    }
    OutFile& out = *outs[request.per_vhost && record.vhost < outs.size()
                             ? record.vhost
                             : 0];
    out.formatter.append(record, out.buf);
    out.buf.push_back('\n');
    ++logs.records;
    if (request.keep_line_ends) {
      logs.line_ends.push_back(out.flushed + out.buf.size());
    }
    if (out.buf.size() >= kWriteChunk) out.flush();
  });

  std::uint64_t digest = kFnvBasis;
  for (auto& out : outs) {
    out->flush();
    // Durable before any timed region: background writeback of these
    // hundreds of MB would otherwise land in the middle of the passes.
    if (::fsync(out->fd) != 0) {
      throw std::runtime_error("cannot sync " + out->path);
    }
    const int fd = std::exchange(out->fd, -1);
    if (::close(fd) != 0) throw std::runtime_error("cannot close " + out->path);
    logs.paths.push_back(out->path);
    logs.bytes += out->flushed;
    char le[8];
    for (int b = 0; b < 8; ++b) {
      le[b] = static_cast<char>((out->hash >> (8 * b)) & 0xff);
    }
    digest = fnv_update(digest, le, sizeof le);
  }
  logs.digest = digest;
  return logs;
}

std::vector<std::unique_ptr<divscrape::detectors::Detector>> make_pool() {
  std::vector<std::unique_ptr<divscrape::detectors::Detector>> pool;
  pool.push_back(std::make_unique<divscrape::detectors::SentinelDetector>());
  pool.push_back(std::make_unique<divscrape::detectors::ArcaneDetector>());
  return pool;
}

std::uint64_t file_size(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<std::uint64_t>(st.st_size);
}

void reset_peak_rss() {
  // Freed generator memory would otherwise stay resident and count.
  (void)::malloc_trim(0);
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return static_cast<double>(divscrape::util::peak_rss_kb()) / 1024.0;
}

}  // namespace perfbench
