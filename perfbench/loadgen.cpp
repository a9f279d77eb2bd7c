// perfbench_loadgen — the compiled half of perfbench (run.py is the
// other): seeded input generation, the closed-loop HTTP load client that
// drives a rap_server child, and the traced in-process replay that
// yields the per-layer ledger.
//
//   perfbench_loadgen prepare --workload W --dir D
//   perfbench_loadgen load    --workload W --seed S --port P --seconds N
//                            --out results.json
//   perfbench_loadgen trace   --workload W --seed S --dir D --seconds N
//                            --out layers.json --trace-out trace.json
//
// prepare writes the program's configuration (schema and tenant
// sidecars) into D.  load and trace generate the request bodies from
// --seed in memory before any clock starts, with the checker's
// expectations: the pattern list of a serial in-process
// RapMiner::localize on each generated table, and the injected truth.
// WORKLOADS.md explains the workloads and metrics.
#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/rapminer.h"
#include "core/search.h"
#include "dataset/groupby_kernel.h"
#include "dataset/schema.h"
#include "detect/detector.h"
#include "gen/rapmd.h"
#include "io/dataset_io.h"
#include "io/json.h"
#include "obs/admin_server.h"
#include "obs/build_info.h"
#include "obs/metrics.h"
#include "svc/catalog.h"
#include "svc/router.h"
#include "svc/snapshot.h"
#include "svc/tenant_config.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/strings.h"

using namespace rap;

namespace {

using Clock = std::chrono::steady_clock;

double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workloads (rationale in WORKLOADS.md)

struct WorkloadSpec {
  std::string_view name;
  bool cdn_schema;  ///< Table I CDN schema; else the 8-attribute family
  double t_cp;      ///< Algorithm 1 threshold the requests run with
  double detect_threshold;  ///< leaf detector threshold of the requests
  int bases;  ///< distinct generated RAPMD cases per run (>= 100)
  std::int32_t case_offset;  ///< keeps case seed ranges disjoint
};

constexpr double kPaperTcp = 0.0005;
constexpr double kTConf = 0.8;
constexpr double kDetectThreshold = 0.095;
constexpr std::int32_t kTopK = 3;
constexpr const char* kTenant = "bench";

// Every workload has at least 100 cases, so a p90 over the per-case
// figures has 10 cases beyond it.
constexpr std::array<WorkloadSpec, 3> kWorkloads = {{
    {"rapmd_paper", false, kPaperTcp, kDetectThreshold, 100, 0},
    // t_cp=0: Algorithm 1 keeps all 8 attributes.  A detector threshold
    // inside the healthy-noise band (Dev ~ U[-0.02, 0.09]) flags ~2% of
    // healthy leaves, so no candidate set covers every anomalous leaf
    // and Algorithm 2 walks all 8 layers (255 cuboids).  Case costs
    // vary about 2x, so the p90 is that of the cases drawn: 200 of them
    // (about one per fresh request) keep it from resting on a few.
    {"rapmd_exhaustive", false, 0.0, 0.088, 200, 1 << 20},
    {"cdn_mixed", true, kPaperTcp, kDetectThreshold, 256, 0},
}};

/// Resubmissions pick among the most recent answers: with at most one
/// insert in flight this stays well inside the tenant's 128-entry LRU
/// cache, so every resubmission must be a hit.
constexpr std::size_t kRecentAnswers = 64;

/// A p90 needs at least 10 samples beyond it, so the untraced run keeps
/// going past --seconds until both request kinds have this many, and at
/// least one per case.
constexpr std::size_t kMinTailSamples = 100;

const WorkloadSpec* findWorkload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

dataset::Schema workloadSchema(const WorkloadSpec& w) {
  return w.cdn_schema ? dataset::Schema::cdn()
                      : dataset::Schema::synthetic({8, 6, 5, 4, 4, 3, 3, 2});
}

/// The localize query: synchronous, top 3, and the knobs that differ
/// from the tenant's defaults, through the public API.
std::string workloadQuery(const WorkloadSpec& w) {
  std::string query = util::strFormat("mode=sync&k=%d", kTopK);
  if (w.t_cp != kPaperTcp) query += util::strFormat("&t_cp=%g", w.t_cp);
  if (w.detect_threshold != kDetectThreshold) {
    query += util::strFormat("&detect_threshold=%g", w.detect_threshold);
  }
  return query;
}

core::RapMiner workloadMiner(const WorkloadSpec& w) {
  return core::RapMiner::Builder().tCp(w.t_cp).tConf(kTConf).build().value();
}

// ---------------------------------------------------------------------------
// Small file / JSON helpers

bool writeFile(const std::string& path, std::string_view data) {
  std::ofstream out(path, std::ios::binary);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  return static_cast<bool>(out);
}

void appendNumber(std::string& out, double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

void appendArray(std::string& out, const std::vector<double>& values) {
  out += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    appendNumber(out, values[i]);
  }
  out += ']';
}

/// The pattern list of a rendered result document — everything before
/// its "stats" object, which carries wall-clock fields.
std::string_view patternsPart(std::string_view doc) {
  const auto cut = doc.find(",\"stats\":");
  return cut == std::string_view::npos ? std::string_view() : doc.substr(0, cut);
}

/// The first `k` "pattern" strings of a rendered pattern list.
std::vector<std::string> topPatterns(std::string_view patterns, std::size_t k) {
  std::vector<std::string> out;
  constexpr std::string_view kKey = "\"pattern\":\"";
  std::size_t pos = 0;
  while (out.size() < k) {
    pos = patterns.find(kKey, pos);
    if (pos == std::string_view::npos) break;
    pos += kKey.size();
    const auto end = patterns.find('"', pos);
    if (end == std::string_view::npos) break;
    out.emplace_back(patterns.substr(pos, end - pos));
    pos = end;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Inputs

/// One generated RAPMD case as the load client uses it.
struct Base {
  std::string body;       ///< CSV request body
  std::string reference;  ///< expected pattern list
  std::vector<std::string> truth;           ///< injected RAPs, rendered
  std::vector<std::uint32_t> real_offsets;  ///< byte offset of each real field
};

/// Appends `v` as saveLeafTable spells it (%.6g) and returns the value
/// that spelling parses back to.
double appendKpi(std::string& out, double v) {
  char buf[32];
  const int n = std::snprintf(buf, sizeof(buf), "%.6g", v);
  out.append(buf, static_cast<std::size_t>(n));
  return std::strtod(buf, nullptr);
}

/// Renders a generated case as a CSV body in the saveLeafTable layout
/// without a label column (so the service runs its default detector),
/// and builds the table that body decodes to — independently of the
/// service's parser — without verdicts.
void renderCsv(const dataset::Schema& schema,
               const dataset::LeafTable& generated, Base& base,
               dataset::LeafTable& decoded) {
  std::string& out = base.body;
  out.reserve(generated.size() * 64 + 128);
  for (dataset::AttrId a = 0; a < schema.attributeCount(); ++a) {
    out += schema.attribute(a).name();
    out += ',';
  }
  out += "real,predict\n";
  decoded.reserve(generated.size());
  base.real_offsets.reserve(generated.size());
  for (const auto& row : generated.rows()) {
    for (dataset::AttrId a = 0; a < schema.attributeCount(); ++a) {
      out += schema.attribute(a).elementName(row.ac.slot(a));
      out += ',';
    }
    base.real_offsets.push_back(static_cast<std::uint32_t>(out.size()));
    const double v = appendKpi(out, row.v);
    out += ',';
    const double f = appendKpi(out, row.f);
    out += '\n';
    decoded.addRow(row.ac, v, f, false);
  }
}

/// Generates the workload's cases from `seed` with their expected
/// pattern lists: a serial RapMiner::localize after the service's
/// default detector, on the decoded table.  Runs before any clock.
std::vector<Base> generateCases(const WorkloadSpec& w,
                                const dataset::Schema& schema,
                                std::uint64_t seed) {
  std::vector<Base> bases(static_cast<std::size_t>(w.bases));
  std::atomic<int> next{0};
  const unsigned threads =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      gen::RapmdGenerator generator(schema, gen::RapmdConfig{}, seed);
      const core::RapMiner miner = workloadMiner(w);
      for (int b = next++; b < w.bases; b = next++) {
        Base& base = bases[static_cast<std::size_t>(b)];
        const gen::Case c = generator.generateCase(w.case_offset + b);
        dataset::LeafTable decoded(schema);
        renderCsv(schema, c.table, base, decoded);
        detect::RelativeDeviationDetector(w.detect_threshold).run(decoded);
        const std::string doc =
            io::resultToJson(schema, miner.localize(decoded, kTopK));
        base.reference = std::string(patternsPart(doc));
        for (const auto& ac : c.truth) base.truth.push_back(ac.toString(schema));
      }
    });
  }
  for (auto& worker : workers) worker.join();
  return bases;
}

/// Input sizes for the run's provenance.
std::string inputsJson(const std::vector<Base>& bases) {
  double rows = 0.0, bytes = 0.0;
  for (const auto& base : bases) {
    rows += static_cast<double>(base.real_offsets.size());
    bytes += static_cast<double>(base.body.size());
  }
  const auto n = static_cast<double>(bases.size());
  return util::strFormat(
      "{\"bases\":%zu,\"mean_rows\":%.1f,\"mean_body_mib\":%.4f}",
      bases.size(), rows / n, bytes / n / (1 << 20));
}

/// Writes the program's configuration — schema and tenant sidecars —
/// and prints the build facts run.py records.
int runPrepare(const WorkloadSpec& w, const std::string& dir) {
  const std::string schema_path = dir + "/schema.csv";
  if (auto status = io::saveSchema(workloadSchema(w), schema_path);
      !status.isOk()) {
    std::fprintf(stderr, "schema: %s\n", status.toString().c_str());
    return 1;
  }
  const std::string tenants = util::strFormat(
      "{\"tenants\":[{\"name\":\"%s\",\"schema\":{\"path\":\"%s\"},"
      "\"k\":%d,\"t_cp\":%.17g,\"t_conf\":%.17g,\"detect_threshold\":%.17g,"
      "\"cache_capacity\":128,\"cache_ttl_seconds\":300}]}\n",
      kTenant, schema_path.c_str(), kTopK, kPaperTcp, kTConf,
      kDetectThreshold);
  if (!writeFile(dir + "/tenants.json", tenants)) {
    std::fprintf(stderr, "cannot write %s/tenants.json\n", dir.c_str());
    return 1;
  }
  const obs::BuildInfo& build = obs::buildInfo();
  std::printf(
      "{\"hardware_concurrency\":%u,\"compiler\":\"%s\",\"build_type\":\"%s\"}\n",
      std::thread::hardware_concurrency(), build.compiler, build.build_type);
  return 0;
}

/// Body of fresh request `id`: case id % bases, spelled distinctly for
/// every id.  Spelling v > 0 prefixes zeros to one real field — the
/// parsed table, and so the expected result, is the case's own, while
/// the bytes (and the service's cache key) are new.
void freshBody(const std::vector<Base>& bases, std::uint64_t id,
               std::string& out) {
  const Base& base = bases[id % bases.size()];
  const std::uint64_t spelling = id / bases.size();
  if (spelling == 0) {
    out.assign(base.body);
    return;
  }
  const std::size_t rows = base.real_offsets.size();
  const std::size_t at = base.real_offsets[(spelling - 1) % rows];
  const std::size_t zeros = 1 + (spelling - 1) / rows;
  out.assign(base.body, 0, at);
  out.append(zeros, '0');
  out.append(base.body, at, std::string::npos);
}

// ---------------------------------------------------------------------------
// Minimal HTTP/1.1 client (the server answers one request per connection)

struct Reply {
  int status = 0;
  std::string cache;  ///< X-Rap-Cache
  std::int64_t route_ns = -1;  ///< X-Bench-Route-Ns (trace mode)
  std::string body;
};

bool sendAll(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n <= 0) return false;
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

std::string_view headerValue(std::string_view head, std::string_view name) {
  std::size_t pos = 0;
  while ((pos = head.find("\r\n", pos)) != std::string_view::npos) {
    pos += 2;
    if (head.size() - pos < name.size() + 1) break;
    bool match = head[pos + name.size()] == ':';
    for (std::size_t i = 0; match && i < name.size(); ++i) {
      match = std::tolower(static_cast<unsigned char>(head[pos + i])) ==
              std::tolower(static_cast<unsigned char>(name[i]));
    }
    if (!match) continue;
    std::size_t start = pos + name.size() + 1;
    while (start < head.size() && head[start] == ' ') ++start;
    const auto end = head.find("\r\n", start);
    return head.substr(start, end - start);
  }
  return {};
}

/// One exchange; false on a socket error or a malformed reply.
bool exchange(std::uint16_t port, const std::string& head,
              const std::string& body, std::string& buf, Reply& reply) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  bool ok = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
            sendAll(fd, head.data(), head.size()) &&
            sendAll(fd, body.data(), body.size());
  buf.clear();
  while (ok) {
    const std::size_t old = buf.size();
    buf.resize(old + 65536);
    const ssize_t n = ::recv(fd, buf.data() + old, 65536, 0);
    if (n < 0) ok = false;
    buf.resize(old + static_cast<std::size_t>(std::max<ssize_t>(n, 0)));
    if (n <= 0) break;
  }
  ::close(fd);
  if (!ok) return false;
  const auto split = buf.find("\r\n\r\n");
  if (split == std::string::npos || buf.compare(0, 9, "HTTP/1.1 ") != 0) {
    return false;
  }
  const std::string_view head_view(buf.data(), split);
  reply.status = std::atoi(buf.c_str() + 9);
  reply.cache = std::string(headerValue(head_view, "X-Rap-Cache"));
  const auto route = headerValue(head_view, "X-Bench-Route-Ns");
  reply.route_ns = route.empty() ? -1 : std::atoll(std::string(route).c_str());
  const auto length = headerValue(head_view, "Content-Length");
  reply.body.assign(buf, split + 4, std::string::npos);
  return !length.empty() &&
         std::strtoull(std::string(length).c_str(), nullptr, 10) ==
             reply.body.size();
}

// ---------------------------------------------------------------------------
// Bench-side tracer: spans in memory, Chrome trace JSON at the end

struct Span {
  const char* name;
  Clock::time_point start;
  Clock::time_point end;
  std::uint64_t id;
  std::uint64_t parent;   ///< 0 = root
  std::uint64_t request;  ///< fresh/resubmission request id
  std::size_t tid;
};

class Tracer {
 public:
  std::uint64_t newId() { return next_id_.fetch_add(1) + 1; }

  void record(Span span) {
    span.tid = std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
  }

  /// Self time per span name: duration minus the time its children
  /// cover (children of one span never overlap here).
  std::map<std::string, std::vector<double>> selfMs() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::uint64_t, double> child_ms;
    for (const auto& s : spans_) {
      if (s.parent != 0) child_ms[s.parent] += msBetween(s.start, s.end);
    }
    std::map<std::string, std::vector<double>> out;
    for (const auto& s : spans_) {
      const auto it = child_ms.find(s.id);
      out[s.name].push_back(msBetween(s.start, s.end) -
                            (it == child_ms.end() ? 0.0 : it->second));
    }
    return out;
  }

  bool writeChromeTrace(const std::string& path, Clock::time_point origin) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char line[320];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(
          line, sizeof(line),
          "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,"
          "\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
          "\"parent\":%llu,\"request\":%llu}}",
          i == 0 ? "" : ",", s.name, s.tid, msBetween(origin, s.start) * 1e3,
          msBetween(s.start, s.end) * 1e3, static_cast<unsigned long long>(s.id),
          static_cast<unsigned long long>(s.parent),
          static_cast<unsigned long long>(s.request));
      out += line;
    }
    out += "]}\n";
    return writeFile(path, out);
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::atomic<std::uint64_t> next_id_{0};
};

/// Records [construction, destruction) as one span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t request,
             std::uint64_t parent)
      : tracer_(tracer),
        span_{name, Clock::now(), {}, tracer.newId(), parent, request, 0} {}
  ~ScopedSpan() { close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const noexcept { return span_.id; }
  double close() {
    if (!closed_) {
      span_.end = Clock::now();
      tracer_.record(span_);
      closed_ = true;
    }
    return msBetween(span_.start, span_.end);
  }

 private:
  Tracer& tracer_;
  Span span_;
  bool closed_ = false;
};

// ---------------------------------------------------------------------------
// The closed-loop client shared by load (untraced, against rap_server)
// and trace (against the in-process server, with layer replays).

enum Failure { kNone, kSocket, kStatus, kRefused, kCacheHeader, kMismatch };
constexpr std::array<const char*, 6> kFailureNames = {
    "none", "socket", "status", "refused", "cache_header", "mismatch"};

struct LoadOptions {
  std::uint16_t port = 0;
  double seconds = 10.0;
  std::size_t min_samples = 1;  ///< per request kind, before stopping
  std::uint64_t seed = 1;
  Tracer* tracer = nullptr;     ///< non-null: traced run
};

/// Per-layer samples of one traced fresh request, keyed by metric name.
using LayerSample = std::map<std::string, double>;

class LoadRun {
 public:
  LoadRun(const WorkloadSpec& w, dataset::Schema schema,
          const std::vector<Base>& bases, LoadOptions options)
      : w_(w), schema_(std::move(schema)), bases_(bases), options_(options) {
    head_prefix_ = "POST /api/v1/tenants/" + std::string(kTenant) +
                   "/localize?" + workloadQuery(w) +
                   " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: text/csv\r\n"
                   "Connection: close\r\n";
    first_answer_.resize(bases.size());
  }

  void run() {
    start_ = Clock::now();
    client();
    wall_s_ = msBetween(start_, Clock::now()) / 1e3;
  }

  std::string resultJson(const std::map<std::string, std::vector<double>>& extra) const {
    std::string out = "{\"fresh_ms\":";
    appendArray(out, fresh_ms_);
    out += ",\"fresh_case\":";
    appendArray(out, fresh_case_);
    out += ",\"repeat_ms\":";
    appendArray(out, repeat_ms_);
    out += ",\"repeat_group\":";
    appendArray(out, repeat_group_);
    out += ",\"untraced_fresh_ms\":";
    appendArray(out, untraced_fresh_ms_);
    out += ",\"attempted\":" + std::to_string(attempted_.load());
    out += ",\"failures\":{";
    for (std::size_t f = 1; f < kFailureNames.size(); ++f) {
      out += util::strFormat("%s\"%s\":%llu", f == 1 ? "" : ",",
                             kFailureNames[f],
                             static_cast<unsigned long long>(failures_[f].load()));
    }
    out += "},\"inputs\":" + inputsJson(bases_) + ",\"wall_s\":";
    appendNumber(out, wall_s_);
    std::size_t covered = 0, truth = 0, hits = 0;
    for (std::size_t b = 0; b < bases_.size(); ++b) {
      if (first_answer_[b].empty()) continue;
      ++covered;
      const auto top = topPatterns(first_answer_[b], kTopK);
      for (const auto& t : bases_[b].truth) {
        ++truth;
        if (std::find(top.begin(), top.end(), t) != top.end()) ++hits;
      }
    }
    out += util::strFormat(",\"bases_covered\":%zu,\"truth_total\":%zu,"
                           "\"truth_hits\":%zu",
                           covered, truth, hits);
    out += ",\"samples\":{";
    bool first = true;
    for (const auto& [name, values] : extra) {
      out += (first ? "\"" : ",\"") + name + "\":";
      appendArray(out, values);
      first = false;
    }
    for (const auto& [name, values] : layerSamples()) {
      out += (first ? "\"" : ",\"") + name + "\":";
      appendArray(out, values);
      first = false;
    }
    out += "}}\n";
    return out;
  }

 private:
  bool done(std::size_t fresh, std::size_t repeat) const {
    const double elapsed = msBetween(start_, Clock::now()) / 1e3;
    if (elapsed >= options_.seconds * 3) return true;  // hard cap
    return elapsed >= options_.seconds && fresh >= options_.min_samples &&
           repeat >= options_.min_samples;
  }

  void fail(Failure f) {
    failures_[f].fetch_add(1);
    std::lock_guard<std::mutex> lock(mutex_);
    if (failure_notes_ < 5) {
      ++failure_notes_;
      std::fprintf(stderr, "perfbench: request failed: %s\n", kFailureNames[f]);
    }
  }

  /// One closed-loop client.  With more, requests wait for one another
  /// (in the accept backlog, or for a core on a small box), and the
  /// latencies follow the scheduler rather than the program.
  void client() {
    util::Rng rng(options_.seed * 1000003ULL);
    std::string body, buf, head;
    Reply reply;
    for (std::uint64_t i = 0;; ++i) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (done(fresh_ms_.size() + untraced_fresh_ms_.size(),
                 repeat_ms_.size())) {
          return;
        }
      }
      // Alternate fresh snapshots and resubmissions of recent answers.
      std::uint64_t id = 0;
      std::shared_ptr<const std::string> expected;
      if (i % 2 == 1) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!recent_.empty()) {
          const auto pick = static_cast<std::size_t>(rng.uniformInt(
              0, static_cast<std::int64_t>(recent_.size()) - 1));
          id = recent_[pick].first;
          expected = recent_[pick].second;
        }
      }
      const bool repeat = expected != nullptr;
      if (!repeat) id = next_fresh_.fetch_add(1);
      freshBody(bases_, id, body);

      const bool traced = options_.tracer != nullptr && (repeat || id % 2 == 0);
      const std::uint64_t span_id = traced ? options_.tracer->newId() : 0;
      head = head_prefix_;
      if (traced) {
        head += util::strFormat("X-Bench-Request: %llu\r\nX-Bench-Span: %llu\r\n",
                                static_cast<unsigned long long>(id),
                                static_cast<unsigned long long>(span_id));
      }
      head += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";

      attempted_.fetch_add(1);
      const auto t0 = Clock::now();
      const bool io_ok = exchange(options_.port, head, body, buf, reply);
      const auto t1 = Clock::now();
      const double ms = msBetween(t0, t1);

      Failure failure = kNone;
      if (!io_ok) {
        failure = kSocket;
      } else if (reply.status == 429 || reply.status == 503) {
        failure = kRefused;
      } else if (reply.status != 200) {
        failure = kStatus;
      } else if (reply.cache != (repeat ? "hit" : "miss")) {
        failure = kCacheHeader;
      } else if (repeat ? reply.body != *expected
                        : patternsPart(reply.body) !=
                              bases_[id % bases_.size()].reference) {
        failure = kMismatch;
      }
      if (failure != kNone) {
        fail(failure);
        continue;
      }
      if (traced) {
        options_.tracer->record({"request", t0, t1, span_id, 0, id, 0});
      }

      LayerSample sample;
      if (traced && reply.route_ns >= 0) {
        const double route_ms = static_cast<double>(reply.route_ns) / 1e6;
        sample["obs.http_ms"] = ms - route_ms;
        sample[repeat ? "svc.handle_repeat_ms" : "svc.handle_fresh_ms"] = route_ms;
      }
      if (traced && !repeat) {
        if (!replay(id, body, sample)) {
          fail(kMismatch);
          continue;
        }
        // What the handler spent outside the layers the replay times:
        // knob validation, cache lookups, the miner build, the per-job
        // LeafTable copy.
        sample["svc.unattributed_ms"] =
            sample["svc.handle_fresh_ms"] - sample["svc.hash_ms"] -
            sample["io.parse_ms"] - sample["detect.run_ms"] -
            sample["core.localize_ms"] - sample["io.render_ms"];
      }

      std::lock_guard<std::mutex> lock(mutex_);
      if (repeat) {
        // Resubmissions are dealt round-robin into as many groups as
        // there are cases, in the order they complete.
        repeat_group_.push_back(
            static_cast<double>(repeat_ms_.size() % bases_.size()));
        repeat_ms_.push_back(ms);
      } else if (options_.tracer != nullptr && !traced) {
        untraced_fresh_ms_.push_back(ms);
      } else {
        fresh_case_.push_back(static_cast<double>(id % bases_.size()));
        fresh_ms_.push_back(ms);
      }
      if (!repeat) {
        recent_.emplace_back(id, std::make_shared<const std::string>(reply.body));
        if (recent_.size() > kRecentAnswers) recent_.pop_front();
        std::string& first = first_answer_[id % bases_.size()];
        if (first.empty()) first = std::string(patternsPart(reply.body));
      }
      if (!sample.empty()) samples_.push_back(std::move(sample));
    }
  }

  /// Replays one fresh request layer by layer through the public entry
  /// points the service uses, under spans; false when the replayed
  /// result disagrees with the expected pattern list.
  bool replay(std::uint64_t id, const std::string& body, LayerSample& sample) {
    Tracer& tracer = *options_.tracer;
    ScopedSpan root(tracer, "replay", id, 0);
    const auto timed = [&](const char* name, auto&& fn) {
      ScopedSpan span(tracer, name, id, root.id());
      fn();
      return span.close();
    };

    std::uint64_t hash = 0;
    sample["svc.hash_ms"] = timed("svc.hash", [&] { hash = svc::contentHash(body); });
    util::Result<dataset::LeafTable> parsed = util::Status::internal("unparsed");
    const double parse_ms =
        timed("io.parse", [&] { parsed = svc::parseCsvSnapshot(schema_, body); });
    if (!parsed.isOk() || hash == 0) return false;
    sample["io.parse_ms"] = parse_ms;
    sample["io.parse_mib_per_s"] =
        static_cast<double>(body.size()) / (1 << 20) / (parse_ms / 1e3);

    dataset::LeafTable table = *parsed;  // the per-job copy, unattributed
    std::uint32_t flagged = 0;
    sample["detect.run_ms"] = timed("detect.run", [&] {
      flagged = detect::RelativeDeviationDetector(w_.detect_threshold).run(table);
    });
    sample["detect.flagged"] = flagged;

    thread_local std::unique_ptr<core::RapMiner> miner;
    if (!miner) miner = std::make_unique<core::RapMiner>(workloadMiner(w_));
    const std::uint64_t localize_id = tracer.newId();
    const auto localize_start = Clock::now();
    const core::LocalizationResult result = miner->localize(table, kTopK);
    const auto localize_end = Clock::now();
    tracer.record({"core.localize", localize_start, localize_end, localize_id,
                   root.id(), id, 0});
    sample["core.localize_ms"] = msBetween(localize_start, localize_end);
    const auto& st = result.stats;
    // Algorithm stages as children, laid end to end from SearchStats
    // (RapMiner times them itself; the bench cannot split the call).
    auto at = localize_start;
    for (const auto& [name, seconds] :
         {std::pair{"core.cp", st.seconds_attribute_deletion},
          std::pair{"core.search", st.seconds_search},
          std::pair{"core.rank", st.seconds_ranking}}) {
      const auto end = at + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
      tracer.record({name, at, end, tracer.newId(), localize_id, id, 0});
      at = end;
    }
    sample["core.cp_ms"] = st.seconds_attribute_deletion * 1e3;
    sample["core.search_ms"] = st.seconds_search * 1e3;
    sample["core.rank_ms"] = st.seconds_ranking * 1e3;
    sample["core.kept_attributes"] = static_cast<double>(st.kept_attributes.size());
    sample["core.search.threads"] = st.search_threads;
    sample["core.search.layers"] = static_cast<double>(st.layers.size());
    sample["core.search.cuboids"] = static_cast<double>(st.cuboids_visited);
    sample["core.search.evaluated"] = static_cast<double>(st.combinations_evaluated);
    sample["core.search.pruned"] = static_cast<double>(st.combinations_pruned);
    sample["core.search.candidates"] = static_cast<double>(st.candidates_found);
    sample["core.search.accept_ratio"] =
        st.combinations_evaluated == 0
            ? 0.0
            : static_cast<double>(st.candidates_found) /
                  static_cast<double>(st.combinations_evaluated);
    double aggregate_ms = 0.0, merge_ms = 0.0;
    for (int layer = 1; layer <= 8; ++layer) {
      double agg = 0.0, merge = 0.0;
      for (const auto& l : st.layers) {
        if (l.layer != layer) continue;
        agg = l.seconds_aggregate * 1e3;
        merge = (l.seconds - l.seconds_aggregate) * 1e3;
      }
      sample[util::strFormat("core.search.L%d.aggregate_ms", layer)] = agg;
      sample[util::strFormat("core.search.L%d.merge_ms", layer)] = merge;
      aggregate_ms += agg;
      merge_ms += merge;
    }
    if (!st.layers.empty()) {
      const auto& deepest = st.layers.back();
      sample["core.search.deepest.aggregate_ms"] = deepest.seconds_aggregate * 1e3;
      sample["core.search.deepest.merge_ms"] =
          (deepest.seconds - deepest.seconds_aggregate) * 1e3;
    }
    sample["core.search.aggregate_ms"] = aggregate_ms;
    sample["core.search.merge_ms"] = merge_ms;
    sample["core.search.merge_share"] =
        st.seconds_search > 0.0 ? merge_ms / (st.seconds_search * 1e3) : 0.0;

    std::string doc;
    sample["io.render_ms"] =
        timed("io.render", [&] { doc = io::resultToJson(schema_, result); });
    if (patternsPart(doc) != bases_[id % bases_.size()].reference) return false;

    // The search's group-by work, replayed over the cuboids it visited.
    thread_local dataset::GroupByKernel kernel;
    thread_local dataset::GroupByScratch scratch;
    thread_local std::vector<dataset::GroupAggregate> groups_out;
    sample["dataset.transpose_ms"] =
        timed("dataset.transpose", [&] { kernel.rebind(table); });
    double groups = 0.0, rows = 0.0;
    sample["dataset.groupby_ms"] = timed("dataset.groupby", [&] {
      for (const auto& l : st.layers) {
        const auto masks = core::orderedCuboids(st.kept_attributes, l.layer,
                                                miner->config().search.order);
        const auto visited =
            std::min<std::size_t>(masks.size(), l.cuboids_visited);
        for (std::size_t m = 0; m < visited; ++m) {
          groups += static_cast<double>(
              kernel.groupByInto(masks[m], scratch, groups_out));
          rows += static_cast<double>(table.size());
        }
      }
    });
    sample["dataset.groups"] = groups;
    sample["dataset.rows_scanned"] = rows;
    return true;
  }

  std::map<std::string, std::vector<double>> layerSamples() const {
    std::map<std::string, std::vector<double>> out;
    for (const auto& sample : samples_) {
      for (const auto& [name, value] : sample) out[name].push_back(value);
    }
    return out;
  }

  const WorkloadSpec& w_;
  dataset::Schema schema_;
  const std::vector<Base>& bases_;
  LoadOptions options_;
  std::string head_prefix_;
  Clock::time_point start_;
  double wall_s_ = 0.0;

  std::atomic<std::uint64_t> next_fresh_{0};
  std::atomic<std::uint64_t> attempted_{0};
  std::array<std::atomic<std::uint64_t>, 6> failures_{};

  std::mutex mutex_;  // guards everything below
  std::vector<double> fresh_ms_;
  std::vector<double> fresh_case_;  ///< case of each fresh_ms_ sample
  std::vector<double> repeat_ms_;
  std::vector<double> repeat_group_;  ///< group of each repeat_ms_ sample
  std::vector<double> untraced_fresh_ms_;
  std::deque<std::pair<std::uint64_t, std::shared_ptr<const std::string>>> recent_;
  std::vector<std::string> first_answer_;  ///< per base, pattern list
  std::vector<LayerSample> samples_;
  int failure_notes_ = 0;
};

// ---------------------------------------------------------------------------

int runLoad(const WorkloadSpec& w, std::uint64_t seed,
            const util::FlagParser& flags) {
  const dataset::Schema schema = workloadSchema(w);
  const auto bases = generateCases(w, schema, seed);
  LoadOptions options;
  options.port = static_cast<std::uint16_t>(flags.getInt("port"));
  options.seconds = flags.getDouble("seconds");
  options.min_samples = std::max(kMinTailSamples, bases.size());
  options.seed = seed;
  LoadRun run(w, schema, bases, options);
  run.run();
  return writeFile(flags.getString("out"), run.resultJson({})) ? 0 : 1;
}

int runTrace(const WorkloadSpec& w, std::uint64_t seed,
             const util::FlagParser& flags) {
  const std::string dir = flags.getString("dir");
  const dataset::Schema schema = workloadSchema(w);
  const auto bases = generateCases(w, schema, seed);

  // The same serving stack rap_server assembles, in-process.
  obs::setMetricsEnabled(true);
  auto specs = svc::loadTenantSidecar(dir + "/tenants.json");
  if (!specs.isOk()) {
    std::fprintf(stderr, "tenants: %s\n", specs.status().toString().c_str());
    return 1;
  }
  svc::DatasetCatalog catalog(svc::DatasetCatalog::Options{.pool_threads = 2});
  for (auto& spec : *specs) {
    if (auto status = catalog.put(std::move(spec)); !status.isOk()) {
      std::fprintf(stderr, "tenant: %s\n", status.toString().c_str());
      return 1;
    }
  }
  svc::TenantRouter router(catalog);
  Tracer tracer;
  obs::AdminServer server(obs::AdminServer::Options{.port = 0, .workers = 2});
  obs::registerObsEndpoints(server);
  server.handleMethod(
      obs::HttpMethod::kPost, "/api/v1/tenants/", /*prefix=*/true,
      [&](const obs::HttpRequest& request) {
        const auto t0 = Clock::now();
        obs::HttpResponse response = router.route(request);
        const auto t1 = Clock::now();
        const std::string* rid = request.header("x-bench-request");
        const std::string* parent = request.header("x-bench-span");
        if (rid != nullptr && parent != nullptr) {
          tracer.record({"svc.route", t0, t1, tracer.newId(),
                         std::strtoull(parent->c_str(), nullptr, 10),
                         std::strtoull(rid->c_str(), nullptr, 10), 0});
          response.headers.emplace_back(
              "X-Bench-Route-Ns",
              std::to_string(std::chrono::nanoseconds(t1 - t0).count()));
        }
        return response;
      });
  if (auto status = server.start(); !status.isOk()) {
    std::fprintf(stderr, "start: %s\n", status.toString().c_str());
    return 1;
  }

  LoadOptions options;
  options.port = server.port();
  options.seconds = flags.getDouble("seconds");
  options.min_samples = bases.size();
  options.seed = seed;
  options.tracer = &tracer;
  const auto origin = Clock::now();
  LoadRun run(w, schema, bases, options);
  run.run();
  server.stop();

  const auto cache = catalog.find(kTenant)->service->cache().stats();
  std::map<std::string, std::vector<double>> extra;
  extra["svc.cache_hits"] = {static_cast<double>(cache.hits)};
  extra["svc.cache_misses"] = {static_cast<double>(cache.misses)};
  extra["svc.cache_insertions"] = {static_cast<double>(cache.insertions)};
  for (const auto& [name, values] : tracer.selfMs()) {
    extra["self." + name] = values;
  }
  if (!tracer.writeChromeTrace(flags.getString("trace-out"), origin)) {
    std::fprintf(stderr, "cannot write %s\n", flags.getString("trace-out").c_str());
    return 1;
  }
  return writeFile(flags.getString("out"), run.resultJson(extra)) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  util::setLogLevel(util::LogLevel::kWarn);
  const std::string usage =
      "usage: perfbench_loadgen prepare|load|trace --workload W [--seed S "
      "--dir D --port P --seconds N --out F --trace-out T]\n";
  if (argc < 2) {
    std::fputs(usage.c_str(), stderr);
    return 2;
  }
  const std::string command = argv[1];
  util::FlagParser flags;
  flags.addString("workload", "", "workload name");
  flags.addInt("seed", 1, "input seed");
  flags.addString("dir", "", "sidecar directory (prepare, trace)");
  flags.addInt("port", 0, "rap_server port (load)");
  flags.addDouble("seconds", 10.0, "measured seconds");
  flags.addString("out", "", "result JSON path");
  flags.addString("trace-out", "", "Chrome trace JSON path (trace)");
  if (auto status = flags.parse(argc - 1, argv + 1); !status.isOk()) {
    std::fprintf(stderr, "%s\n%s", status.toString().c_str(), usage.c_str());
    return 2;
  }
  const WorkloadSpec* w = findWorkload(flags.getString("workload"));
  if (w == nullptr) {
    std::fputs(usage.c_str(), stderr);
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(flags.getInt("seed"));
  if (command == "prepare") return runPrepare(*w, flags.getString("dir"));
  if (command == "load") return runLoad(*w, seed, flags);
  if (command == "trace") return runTrace(*w, seed, flags);
  std::fputs(usage.c_str(), stderr);
  return 2;
}
