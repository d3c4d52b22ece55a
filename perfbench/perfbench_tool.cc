// perfbench_tool — the compiled half of the serving benchmark
// (perfbench/README.md). perfbench/run.py drives it; three subcommands:
//
//   gen   --out DIR --seed N CORPUS...
//         Writes each corpus as DIR/<CORPUS>.xml and prints the
//         tree-evaluator oracle: the selected tree-node count of every
//         benchmark query on the generated XML.
//   load  --port P --stream FILE --seconds S --out FILE [--whole-rounds]
//         The load generator: one thread multiplexing one closed-loop
//         connection per stream section against a running xcq_serverd.
//         Times each request from its send to the last byte of its reply
//         and writes one line per request: connection, pass over the
//         stream, request index, completion offset and latency (ns), reply.
//   trace --stream FILE --docs FILE --seconds S --out FILE --port P
//         [--data-dir D] [--whole-rounds]
//         The traced run: replays the same stream in process through the
//         daemon's public call chain and records spans around each call;
//         P is a live daemon for the inline round-trip floor.
//
// Stream file (written by run.py): a line `conn` opens a connection's
// section; every other line is one request, its protocol lines joined by
// the unit separator 0x1f (a BATCH header and its body travel together).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "xcq/api.h"

namespace {

using Clock = std::chrono::steady_clock;

constexpr char kSep = '\x1f';

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

int Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench_tool: %s\n", what.c_str());
  return 1;
}

// --flag value / --flag parsing over argv[2..].
struct Args {
  std::map<std::string, std::string> flags;
  std::vector<std::string> positional;

  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        positional.push_back(arg);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0)) {
        flags[arg.substr(2)] = argv[++i];
      } else {
        flags[arg.substr(2)] = "";
      }
    }
  }
  bool Has(const std::string& key) const { return flags.count(key) > 0; }
  std::string Get(const std::string& key) const {
    auto it = flags.find(key);
    return it == flags.end() ? std::string() : it->second;
  }
};

uint16_t Port(const Args& args) {
  return static_cast<uint16_t>(
      std::strtoul(args.Get("port").c_str(), nullptr, 10));
}

std::vector<std::string> Split(std::string_view text, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    const size_t end = text.find(sep, start);
    parts.emplace_back(text.substr(start, end - start));
    if (end == std::string_view::npos) break;
    start = end + 1;
  }
  return parts;
}

// One connection's requests, each as its protocol lines.
using Stream = std::vector<std::vector<std::string>>;

// The stream file's sections by kind: `pass` (the warm-up pass, repeated
// to the split fixpoint), `prep` (run once after it) and `conn` (one per
// measured connection).
using Sections = std::map<std::string, std::vector<Stream>>;

bool ReadStreams(const std::string& path, Sections* sections) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  Stream* current = nullptr;
  while (std::getline(in, line)) {
    if (line == "conn" || line == "pass" || line == "prep") {
      current = &(*sections)[line].emplace_back();
    } else if (!line.empty() && current != nullptr) {
      current->push_back(Split(line, kSep));
    }
  }
  return sections->count("conn") > 0;
}

// ---------------------------------------------------------------------------
// gen: corpora + oracle
// ---------------------------------------------------------------------------

// The seven queries every document is asked: Appendix-A Q1..Q5, the
// document element, and every element.
std::vector<std::string> BenchmarkQueries(std::string_view corpus) {
  std::vector<std::string> queries;
  auto set = xcq::corpus::QueriesFor(corpus);
  if (set.ok()) {
    for (std::string_view q : set->queries) queries.emplace_back(q);
  }
  queries.emplace_back("/*");
  queries.emplace_back("//*");
  return queries;
}

int Gen(const Args& args) {
  const std::string out = args.Get("out");
  const uint64_t seed = std::strtoull(args.Get("seed").c_str(), nullptr, 10);
  if (out.empty() || args.positional.empty()) {
    return Fail("usage: gen --out DIR --seed N CORPUS...");
  }
  for (const std::string& name : args.positional) {
    auto corpus = xcq::corpus::FindCorpus(name);
    if (!corpus.ok()) return Fail("unknown corpus " + name);
    xcq::corpus::GenerateOptions options;
    options.target_nodes = (*corpus)->default_target_nodes();
    options.seed = seed;
    const std::string xml = (*corpus)->Generate(options);
    const std::string path = out + "/" + name + ".xml";
    const xcq::Status written = xcq::AtomicWriteFile(path, xml);
    if (!written.ok()) return Fail(written.ToString());
    std::printf("doc %s %s %zu\n", name.c_str(), path.c_str(), xml.size());

    const std::vector<std::string> queries = BenchmarkQueries(name);
    std::vector<xcq::algebra::QueryPlan> plans;
    std::vector<std::string> patterns;
    for (const std::string& text : queries) {
      auto query = xcq::xpath::ParseQuery(text);
      if (!query.ok()) return Fail(text + ": " + query.status().ToString());
      auto plan = xcq::algebra::Compile(*query);
      if (!plan.ok()) return Fail(text + ": " + plan.status().ToString());
      plans.push_back(std::move(plan).Value());
      for (std::string& p : xcq::xpath::CollectRequirements(*query).patterns) {
        if (std::find(patterns.begin(), patterns.end(), p) == patterns.end()) {
          patterns.push_back(std::move(p));
        }
      }
    }
    auto labeled = xcq::TreeBuilder::Build(xml, patterns);
    if (!labeled.ok()) return Fail(labeled.status().ToString());
    for (size_t i = 0; i < queries.size(); ++i) {
      auto selected = xcq::baseline::Evaluate(*labeled, plans[i]);
      if (!selected.ok()) return Fail(selected.status().ToString());
      std::printf("query %s %zu %zu %s\n", name.c_str(), i, selected->Count(),
                  queries[i].c_str());
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// load: the closed-loop load generator
// ---------------------------------------------------------------------------

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

// Lines a reply to `request` spans, once its first line is known: `OK <n>`
// to a BATCH/STATS/METRICS announces n detail lines; everything else is
// one line.
size_t ReplyLines(const std::string& request, const std::string& first) {
  const bool multi = request.rfind("BATCH ", 0) == 0 || request == "STATS" ||
                     request == "METRICS";
  if (!multi || first.rfind("OK ", 0) != 0) return 1;
  return 1 + std::strtoull(first.c_str() + 3, nullptr, 10);
}

// A client connection of the load generator: sends its stream's
// requests one at a time and reassembles each reply.
struct Client {
  int fd = -1;
  const Stream* stream = nullptr;
  size_t next = 0;        // Index of the next request in `stream`.
  size_t rounds = 0;      // Completed passes over `stream`.
  bool waiting = false;   // A request is outstanding.
  bool done = false;
  size_t current = 0;     // Index of the outstanding request.
  int64_t sent_ns = 0;
  std::string buffer;     // Received bytes not yet split into lines.
  std::vector<std::string> reply;
  size_t expected = 0;    // Lines the outstanding reply spans (0 = unknown).
};

int Load(const Args& args) {
  const uint16_t port = Port(args);
  const double seconds = std::strtod(args.Get("seconds").c_str(), nullptr);
  const bool whole_rounds = args.Has("whole-rounds");
  Sections sections;
  if (!ReadStreams(args.Get("stream"), &sections)) return Fail("bad --stream");
  const std::vector<Stream>& streams = sections["conn"];
  std::FILE* out = std::fopen(args.Get("out").c_str(), "w");
  if (out == nullptr) return Fail("cannot open --out");

  std::vector<Client> clients(streams.size());
  for (size_t i = 0; i < streams.size(); ++i) {
    clients[i].stream = &streams[i];
    clients[i].fd = ConnectLoopback(port);
    if (clients[i].fd < 0) return Fail("connect failed");
  }
  std::vector<pollfd> fds(clients.size());
  const int64_t start_ns = NowNs();
  const int64_t stop_ns = start_ns + static_cast<int64_t>(seconds * 1e9);
  bool ok = true;

  auto send_next = [&](Client& c) {
    if (c.next == c.stream->size()) {
      c.next = 0;
      ++c.rounds;
    }
    // Time is checked before every request, or only between passes over
    // the stream with --whole-rounds (a fixed store-state sequence).
    if (NowNs() >= stop_ns && (!whole_rounds || c.next == 0)) {
      c.done = true;
      return;
    }
    std::string bytes;
    for (const std::string& line : (*c.stream)[c.next]) {
      bytes += line;
      bytes += '\n';
    }
    c.current = c.next++;
    c.waiting = true;
    c.expected = 0;
    c.reply.clear();
    c.sent_ns = NowNs();
    if (!SendAll(c.fd, bytes)) ok = false;
  };

  for (Client& c : clients) send_next(c);
  char chunk[65536];
  while (ok) {
    size_t live = 0;
    for (size_t i = 0; i < clients.size(); ++i) {
      fds[i] = pollfd{clients[i].fd, 0, 0};
      if (clients[i].waiting) {
        fds[i].events = POLLIN;
        ++live;
      }
    }
    if (live == 0) break;
    if (::poll(fds.data(), fds.size(), 10000) <= 0) {
      if (errno == EINTR) continue;
      ok = false;
      break;
    }
    for (size_t i = 0; i < clients.size(); ++i) {
      if (fds[i].revents == 0) continue;
      Client& c = clients[i];
      const ssize_t n = ::recv(c.fd, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        ok = false;
        break;
      }
      c.buffer.append(chunk, static_cast<size_t>(n));
      size_t pos = 0;
      size_t eol;
      while (c.waiting &&
             (eol = c.buffer.find('\n', pos)) != std::string::npos) {
        c.reply.push_back(c.buffer.substr(pos, eol - pos));
        pos = eol + 1;
        if (c.expected == 0) {
          c.expected = ReplyLines((*c.stream)[c.current].front(), c.reply[0]);
        }
        if (c.reply.size() == c.expected) {
          const int64_t done_ns = NowNs();
          std::string joined;
          for (size_t k = 0; k < c.reply.size(); ++k) {
            if (k > 0) joined += kSep;
            joined += c.reply[k];
          }
          std::fprintf(out, "%zu\t%zu\t%zu\t%lld\t%lld\t%s\n", i, c.rounds,
                       c.current, static_cast<long long>(done_ns - start_ns),
                       static_cast<long long>(done_ns - c.sent_ns),
                       joined.c_str());
          c.waiting = false;
        }
      }
      c.buffer.erase(0, pos);
      if (!c.waiting && !c.done) send_next(c);
    }
  }
  for (Client& c : clients) ::close(c.fd);
  std::fclose(out);
  return ok ? 0 : Fail("connection failed mid-window");
}

// ---------------------------------------------------------------------------
// trace: the in-process replay with spans
// ---------------------------------------------------------------------------

// One recorded interval. `parent` indexes the owning request's spans
// (-1 for the request's root span).
struct Span {
  const char* name = nullptr;
  int parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// What one evaluated query reported through the public API
// (QueryOutcome: its phase trace and EvalStats).
struct OutcomeRecord {
  uint64_t tree = 0;
  uint64_t splits = 0;
  uint64_t visited = 0;
  uint64_t full = 0;
  uint64_t summary_builds = 0;
  double phase[xcq::obs::kPhaseCount] = {};
  double covered = 0.0;  // Summed top-level phase spans.
  double kernel = 0.0;   // EvalStats::sweep_seconds.
  double bind = 0.0;     // EvalStats::prune_bind_seconds.
  double family[xcq::engine::kAxisFamilyCount] = {};
};

// One replayed request: the spans around each call it crossed.
struct RequestRecord {
  size_t conn = 0;
  size_t index = 0;
  bool faultin = false;
  std::vector<Span> spans;
  std::vector<OutcomeRecord> outcomes;
  std::vector<std::string> reply;

  int Open(const char* name, int parent, int64_t start_ns) {
    spans.push_back(Span{name, parent, start_ns, 0});
    return static_cast<int>(spans.size()) - 1;
  }
  void Add(const char* name, int parent, int64_t start_ns, int64_t end_ns) {
    spans.push_back(Span{name, parent, start_ns, end_ns});
  }
};

OutcomeRecord Record(const xcq::QueryOutcome& outcome) {
  OutcomeRecord r;
  r.tree = outcome.selected_tree_nodes;
  r.splits = outcome.stats.splits;
  r.visited = outcome.stats.sweep_visited;
  r.full = outcome.stats.sweep_full;
  r.summary_builds = outcome.stats.summary_builds;
  for (size_t p = 0; p < xcq::obs::kPhaseCount; ++p) {
    r.phase[p] = outcome.trace.PhaseSeconds(static_cast<xcq::obs::Phase>(p));
  }
  for (size_t i = 0; i < outcome.trace.span_count(); ++i) {
    const xcq::obs::TraceSpan& span = outcome.trace.span(i);
    if (span.depth == 0) r.covered += span.duration_seconds;
  }
  r.kernel = outcome.stats.sweep_seconds;
  r.bind = outcome.stats.prune_bind_seconds;
  for (size_t f = 0; f < xcq::engine::kAxisFamilyCount; ++f) {
    r.family[f] = outcome.stats.axis[f].seconds;
  }
  return r;
}

// Exact counters summed over a replay; replays of one stream over the
// same request counts must agree on all of them.
struct ReplayCounts {
  uint64_t requests = 0;
  uint64_t visited = 0;
  uint64_t full = 0;
  uint64_t splits = 0;
  uint64_t faultins = 0;
  bool operator==(const ReplayCounts&) const = default;
};

// The value of an unlabeled series in a Prometheus exposition.
double Series(const std::string& exposition, const std::string& name) {
  const std::string key = "\n" + name + " ";
  const size_t at = exposition.find(key);
  if (at == std::string::npos) return 0.0;
  return std::strtod(exposition.c_str() + at + key.size(), nullptr);
}

xcq::server::StoreOptions StoreFor(const std::string& data_dir) {
  xcq::server::StoreOptions options;
  options.data_dir = data_dir;
  return options;
}

xcq::server::ServiceOptions ServiceDefaults() {
  const xcq::server::ServerOptions daemon;
  xcq::server::ServiceOptions options;
  options.worker_threads = daemon.worker_threads;
  options.queue_depth = daemon.queue_depth;
  return options;
}

// The daemon's serving stack, in process: the store and the worker pool
// as TcpServer configures them by default.
class Replayer {
 public:
  explicit Replayer(const std::string& data_dir)
      : store_(StoreFor(data_dir)), service_(&store_, ServiceDefaults()) {}

  xcq::server::DocumentStore& store() { return store_; }

  // Runs `stream`'s requests serially on the calling thread (set-up
  // passes); returns the summed splits, or -1 on any error reply.
  int64_t RunSerial(const Stream& stream) {
    int64_t splits = 0;
    for (size_t i = 0; i < stream.size(); ++i) {
      auto request = xcq::server::ParseRequest(stream[i].front());
      if (!request.ok()) return -1;
      RequestRecord rec;
      Execute(*request, stream[i], &rec, /*spans=*/false);
      if (rec.reply.empty() || rec.reply[0].rfind("OK", 0) != 0) return -1;
      for (const OutcomeRecord& o : rec.outcomes) splits += o.splits;
    }
    return splits;
  }

  // Closed-loop replay of one stream per connection through the worker
  // pool. `quota[c]` > 0 replays exactly that many requests of
  // connection c; otherwise requests are issued until `seconds` pass
  // (at pass boundaries with `whole_rounds`) and the counts are stored
  // into `quota`. Returns the wall time in seconds.
  double Replay(const std::vector<Stream>& conns, std::vector<size_t>* quota,
                double seconds, bool whole_rounds, bool spans,
                std::vector<RequestRecord>* records, ReplayCounts* counts) {
    const bool fixed = !quota->empty();
    if (!fixed) quota->assign(conns.size(), 0);
    std::vector<size_t> issued(conns.size(), 0);
    std::vector<bool> done(conns.size(), false);
    const int64_t start_ns = NowNs();
    const int64_t stop_ns = start_ns + static_cast<int64_t>(seconds * 1e9);
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::unique_ptr<RequestRecord>> completed;
    size_t live = 0;

    auto dispatch = [&](size_t c) {
      const size_t k = issued[c];
      const Stream& stream = conns[c];
      const bool stop =
          fixed ? k == (*quota)[c]
                : NowNs() >= stop_ns &&
                      (!whole_rounds || k % stream.size() == 0);
      if (stop) {
        done[c] = true;
        if (!fixed) (*quota)[c] = k;
        return;
      }
      ++issued[c];
      auto rec = std::make_unique<RequestRecord>();
      rec->conn = c;
      rec->index = k % stream.size();
      const std::vector<std::string>& lines = stream[rec->index];
      const int64_t t0 = NowNs();
      // A request records at most eight spans; reserving them keeps span
      // recording to one allocation per request.
      if (spans) rec->spans.reserve(8);
      const int root = spans ? rec->Open("request", -1, t0) : 0;
      // The event loop's share: frame and parse the request line.
      auto parsed = xcq::server::ParseRequest(lines.front());
      const int64_t t1 = NowNs();
      if (spans) rec->Add("protocol.parse", root, t0, t1);
      if (!parsed.ok()) std::abort();  // The stream is generated valid.
      RequestRecord* raw = rec.release();
      xcq::server::WorkItem item;
      item.document = parsed->name;
      item.run = [&, raw, root, t1, spans, request = *parsed] {
        std::unique_ptr<RequestRecord> owned(raw);
        const int64_t run_start = NowNs();
        int run = 0;
        if (spans) {
          owned->Add("query_service.queue_wait", root, t1, run_start);
          run = owned->Open("query_service.run", root, run_start);
        }
        Execute(request, conns[owned->conn][owned->index], owned.get(), spans,
                run);
        const int64_t run_end = NowNs();
        if (spans) {
          owned->spans[run].end_ns = run_end;
          owned->Open("query_service.complete", root, run_end);
        }
        std::lock_guard<std::mutex> lock(mu);
        completed.push_back(std::move(owned));
        cv.notify_one();
      };
      ++live;
      while (!service_.TrySubmitWork(item)) std::this_thread::yield();
    };

    for (size_t c = 0; c < conns.size(); ++c) dispatch(c);
    while (live > 0) {
      std::unique_ptr<RequestRecord> rec;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !completed.empty(); });
        rec = std::move(completed.front());
        completed.pop_front();
      }
      --live;
      const int64_t now = NowNs();
      if (spans) {
        rec->spans.back().end_ns = now;  // query_service.complete
        rec->spans[0].end_ns = now;      // request
      }
      ++counts->requests;
      for (const OutcomeRecord& o : rec->outcomes) {
        counts->visited += o.visited;
        counts->full += o.full;
        counts->splits += o.splits;
      }
      counts->faultins += rec->faultin ? 1 : 0;
      const size_t c = rec->conn;
      if (spans) records->push_back(std::move(*rec));
      if (!done[c]) dispatch(c);
    }
    return static_cast<double>(NowNs() - start_ns) / 1e9;
  }

 private:
  // One request through the daemon's call chain: Acquire, Query / Batch,
  // Build*Reply — or the EVICT / PERSIST builders.
  // `lines` are the request's protocol lines (a BATCH header and its
  // body); `request` is the parsed first line.
  void Execute(const xcq::server::Request& request,
               const std::vector<std::string>& lines, RequestRecord* rec,
               bool spans, int parent = -1) {
    const std::string& name = request.name;
    const int64_t t0 = NowNs();
    if (request.kind == xcq::server::Request::Kind::kEvict) {
      rec->reply = xcq::server::BuildEvictReply(&store_, name);
      if (rec->reply[0].rfind("OK", 0) == 0) Evicted(name, true);
      if (spans) rec->Add("document_store.evict", parent, t0, NowNs());
      return;
    }
    if (request.kind == xcq::server::Request::Kind::kPersist) {
      rec->reply = xcq::server::BuildPersistReply(&store_, name);
      if (spans) rec->Add("document_store.persist", parent, t0, NowNs());
      return;
    }
    rec->faultin = Evicted(name, false);
    auto doc = store_.Acquire(name);
    const int64_t t1 = NowNs();
    if (spans) {
      rec->Add(rec->faultin ? "document_store.faultin"
                            : "document_store.acquire",
               parent, t0, t1);
    }
    if (!doc.ok()) {
      rec->reply = {xcq::server::FormatError(doc.status())};
      return;
    }
    std::vector<std::string> queries(lines.begin() + 1, lines.end());
    xcq::server::QueryResponse response = xcq::Status::Internal("unset");
    if (request.kind == xcq::server::Request::Kind::kQuery) {
      auto outcome = (*doc)->Query(request.query);
      if (outcome.ok()) {
        response = std::vector<xcq::QueryOutcome>{std::move(outcome).Value()};
      } else {
        response = outcome.status();
      }
    } else {
      response = (*doc)->Batch(queries);
    }
    const int64_t t2 = NowNs();
    if (spans) rec->Add("document_store.query", parent, t1, t2);
    if (response.ok()) {
      for (const xcq::QueryOutcome& outcome : *response) {
        rec->outcomes.push_back(Record(outcome));
      }
    }
    const int64_t t3 = NowNs();
    rec->reply = request.kind == xcq::server::Request::Kind::kQuery
                     ? xcq::server::BuildQueryReply(&store_, name,
                                                    request.query, response)
                     : xcq::server::BuildBatchReply(&store_, name, queries,
                                                    response);
    if (spans) rec->Add("protocol.format", parent, t3, NowNs());
  }

  // Tracks which documents an EVICT demoted, so the next Acquire of one
  // is known to be a fault-in. Returns (and clears, unless `set`) the
  // document's evicted flag.
  bool Evicted(const std::string& name, bool set) {
    std::lock_guard<std::mutex> lock(evicted_mu_);
    const bool was = evicted_.count(name) > 0;
    if (set) {
      evicted_.insert(name);
    } else {
      evicted_.erase(name);
    }
    return was;
  }

  xcq::server::DocumentStore store_;
  xcq::server::QueryService service_;
  std::mutex evicted_mu_;
  std::set<std::string> evicted_;
};

int64_t Median(std::vector<int64_t> values) {
  std::sort(values.begin(), values.end());
  return values.empty() ? 0 : values[values.size() / 2];
}

// Round trip of a line the event loop answers inline (an unknown verb),
// against a live daemon: the framing, epoll and socket floor.
int64_t InlineRttNs(uint16_t port, size_t count) {
  const int fd = ConnectLoopback(port);
  if (fd < 0) return -1;
  std::vector<int64_t> rtts;
  char buffer[4096];
  for (size_t i = 0; i < count; ++i) {
    const int64_t t0 = NowNs();
    if (!SendAll(fd, "PING\n")) break;
    bool got = false;
    while (!got) {
      const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
      if (n <= 0) break;
      got = std::memchr(buffer, '\n', static_cast<size_t>(n)) != nullptr;
    }
    if (!got) break;
    rtts.push_back(NowNs() - t0);
  }
  ::close(fd);
  return rtts.size() == count ? Median(rtts) : -1;
}

int Trace(const Args& args) {
  const double seconds = std::strtod(args.Get("seconds").c_str(), nullptr);
  const bool whole_rounds = args.Has("whole-rounds");
  Sections sections;
  if (!ReadStreams(args.Get("stream"), &sections)) return Fail("bad --stream");
  std::vector<std::pair<std::string, std::string>> docs;
  {
    std::ifstream in(args.Get("docs"));
    std::string name, path;
    while (in >> name >> path) docs.emplace_back(name, path);
  }
  std::FILE* out = std::fopen(args.Get("out").c_str(), "w");
  if (out == nullptr) return Fail("cannot open --out");

  // Directly timed layers, on the generated sources: compression, then
  // the spill format's serialize / deserialize of the result.
  constexpr int kReps = 3;
  for (const auto& [name, path] : docs) {
    auto xml = xcq::xml::ReadFileToString(path);
    if (!xml.ok()) return Fail(xml.status().ToString());
    std::vector<int64_t> compress, serialize, deserialize;
    size_t vertices = 0, footprint = 0, bytes = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      int64_t t0 = NowNs();
      auto instance = xcq::CompressXml(*xml);
      compress.push_back(NowNs() - t0);
      if (!instance.ok()) return Fail(instance.status().ToString());
      t0 = NowNs();
      const std::string spill = xcq::SerializeInstanceChecksummed(*instance);
      serialize.push_back(NowNs() - t0);
      t0 = NowNs();
      auto back = xcq::DeserializeInstance(spill);
      deserialize.push_back(NowNs() - t0);
      if (!back.ok()) return Fail(back.status().ToString());
      vertices = instance->ReachableCount();
      footprint = instance->MemoryFootprint();
      bytes = spill.size();
    }
    std::fprintf(out, "direct\t%s\t%lld\t%lld\t%lld\t%zu\t%zu\t%zu\n",
                 name.c_str(), static_cast<long long>(Median(compress)),
                 static_cast<long long>(Median(serialize)),
                 static_cast<long long>(Median(deserialize)), vertices,
                 footprint, bytes);
  }

  // Set-up as the daemon run does it: LOAD, warm to the split fixpoint,
  // then the prep section.
  Replayer replayer(args.Get("data-dir"));
  for (const auto& [name, path] : docs) {
    const auto reply =
        xcq::server::BuildLoadReply(&replayer.store(), name, path);
    if (reply[0].rfind("OK", 0) != 0) return Fail(reply[0]);
  }
  for (int pass = 0;; ++pass) {
    if (pass == 20) return Fail("no split fixpoint after 20 passes");
    const int64_t splits = replayer.RunSerial(sections["pass"].at(0));
    if (splits < 0) return Fail("error reply while warming");
    if (splits == 0) break;
  }
  for (const Stream& prep : sections["prep"]) {
    if (replayer.RunSerial(prep) < 0) return Fail("error reply in prep");
  }

  // The identical stream three times over the same per-connection
  // request counts: spans off, on, off. Averaging the two spans-off walls
  // cancels a steady drift in host speed across the three.
  auto scrape = [&] { return "\n" + replayer.store().ScrapeMetrics(); };
  const std::vector<xcq::server::DocumentInfo> stats_before =
      replayer.store().Stats();
  const std::string metrics_before = scrape();
  std::vector<size_t> quota;
  std::vector<RequestRecord> records;
  ReplayCounts off, on, off_again;
  const double wall_off = replayer.Replay(sections["conn"], &quota,
                                          seconds, whole_rounds, false,
                                          &records, &off);
  const std::string metrics_mid = scrape();
  const double wall_on = replayer.Replay(sections["conn"], &quota, seconds,
                                         whole_rounds, true, &records, &on);
  const std::string metrics_after = scrape();
  const double wall_off_again =
      replayer.Replay(sections["conn"], &quota, seconds, whole_rounds, false,
                      &records, &off_again);
  const std::vector<xcq::server::DocumentInfo> stats_after =
      replayer.store().Stats();

  std::vector<int64_t> scrapes;
  for (int i = 0; i < 21; ++i) {
    const int64_t t0 = NowNs();
    replayer.store().ScrapeMetrics();
    scrapes.push_back(NowNs() - t0);
  }
  const uint16_t port = Port(args);
  const int64_t rtt = InlineRttNs(port, 2000);
  if (rtt < 0) return Fail("inline round trips failed");

  std::fprintf(out, "wall\t%.9f\t%.9f\t%.9f\n", wall_off, wall_on,
               wall_off_again);
  std::fprintf(out, "scrape_ns\t%lld\n",
               static_cast<long long>(Median(scrapes)));
  std::fprintf(out, "inline_rtt_ns\t%lld\n", static_cast<long long>(rtt));
  for (const auto& [label, counts] :
       {std::pair{"off", off}, {"on", on}, {"off_again", off_again}}) {
    std::fprintf(out, "counts\t%s\t%llu\t%llu\t%llu\t%llu\t%llu\n", label,
                 static_cast<unsigned long long>(counts.requests),
                 static_cast<unsigned long long>(counts.visited),
                 static_cast<unsigned long long>(counts.full),
                 static_cast<unsigned long long>(counts.splits),
                 static_cast<unsigned long long>(counts.faultins));
  }
  for (const char* series :
       {"xcq_store_warm_hits_total", "xcq_store_spill_writes_total",
        "xcq_store_evictions_total"}) {
    std::fprintf(out, "series\t%s\t%.0f\t%.0f\t%.0f\n", series,
                 Series(metrics_before, series), Series(metrics_mid, series),
                 Series(metrics_after, series));
  }
  for (const auto* stats : {&stats_before, &stats_after}) {
    for (const xcq::server::DocumentInfo& info : *stats) {
      std::fprintf(out, "stats\t%s\t%s\n", stats == &stats_before ? "before"
                                                                  : "after",
                   xcq::server::FormatDocumentInfo(info).c_str());
    }
  }
  for (size_t r = 0; r < records.size(); ++r) {
    const RequestRecord& rec = records[r];
    std::string reply;
    for (const std::string& line : rec.reply) {
      if (!reply.empty()) reply += kSep;
      reply += line;
    }
    std::fprintf(out, "req\t%zu\t%zu\t%zu\t%d\t%s\n", r, rec.conn, rec.index,
                 rec.faultin ? 1 : 0, reply.c_str());
    for (size_t s = 0; s < rec.spans.size(); ++s) {
      const Span& span = rec.spans[s];
      std::fprintf(out, "span\t%zu\t%zu\t%d\t%s\t%lld\t%lld\n", r, s,
                   span.parent, span.name,
                   static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns));
    }
    for (const OutcomeRecord& o : rec.outcomes) {
      std::fprintf(out, "outcome\t%zu\t%llu\t%llu\t%llu\t%llu\t%llu", r,
                   static_cast<unsigned long long>(o.tree),
                   static_cast<unsigned long long>(o.splits),
                   static_cast<unsigned long long>(o.visited),
                   static_cast<unsigned long long>(o.full),
                   static_cast<unsigned long long>(o.summary_builds));
      for (double p : o.phase) std::fprintf(out, "\t%.9f", p);
      std::fprintf(out, "\t%.9f\t%.9f\t%.9f", o.covered, o.kernel, o.bind);
      for (double f : o.family) std::fprintf(out, "\t%.9f", f);
      std::fprintf(out, "\n");
    }
  }
  std::fclose(out);
  if (!(off == on) || !(off == off_again)) {
    return Fail("the replays disagree on exact counts");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Fail("usage: perfbench_tool gen|load|trace ...");
  const std::string command = argv[1];
  const Args args(argc, argv);
  if (command == "gen") return Gen(args);
  if (command == "load") return Load(args);
  if (command == "trace") return Trace(args);
  return Fail("unknown command " + command);
}
