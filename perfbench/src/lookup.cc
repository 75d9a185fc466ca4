// lookup: per-EPC traceability lookups through the SQL server over
// loopback. min(4, nproc) sessions each run a closed loop; every session
// defines the five standard rules, so each statement is rewritten on a
// plan-cache miss. EPCs are drawn Zipf(1.0) over all case EPCs, fresh
// for every round, so a run issues more distinct statement texts than
// the 256-entry plan cache holds. Per-query fixed costs (framing, sessions, admission, plan-cache
// hits and misses, rewrites on misses) dominate; execution is a small
// indexed window, the fragment cache never engages and nothing is
// ingested.
#include <algorithm>
#include <cstdio>
#include <latch>
#include <map>
#include <thread>

#include "common/random.h"
#include "common/string_util.h"
#include "harness.h"
#include "rewrite/rewriter.h"
#include "rfidgen/workload.h"
#include "server/client.h"
#include "server/server.h"
#include "sql/parser.h"
#include "storage/columnar.h"
#include "storage/persist.h"

namespace perfbench {
namespace {

using rfid::server::Client;
using rfid::server::Server;

constexpr int kMaxSessions = 4;
constexpr int kLookupsPerSession = 25;  // per round
// A round takes about this long on the reference host (see README.md).
constexpr double kNominalRoundS = 2.5;
constexpr int kSetupRepeats = 3;
constexpr int kRules = 5;
// Statements whose parse and rewrite the traced run times client-side.
constexpr size_t kTracedStatements = 64;

std::string LookupSql(const std::string& epc) {
  return "SELECT rtime, biz_loc, reader FROM caseR WHERE epc = '" + epc +
         "' ORDER BY rtime";
}

struct Answer {
  size_t epc = 0;
  bool timed = false;
  std::vector<Row> rows;
};

struct Session {
  std::unique_ptr<Client> client;
  std::vector<size_t> epcs;  // the session's lookups in the current round
  std::vector<size_t> all_epcs;  // every lookup the session issued
  std::vector<Answer> answers;
  std::vector<double> latencies;
  uint64_t failed = 0;       // timed lookups that returned an error
  uint64_t warm_failed = 0;  // warm-up lookups that returned an error
};

struct Stack {
  std::unique_ptr<Server> server;
  std::vector<Session> sessions;

  // Closes every session and shuts the server down; the sessions'
  // answers and latencies stay.
  void Stop() {
    for (Session& s : sessions) {
      if (s.client != nullptr) (void)s.client->Quit();
      s.client.reset();
    }
    if (server != nullptr) server->Shutdown();
    server.reset();
  }
};

// Starts a server, loads the saved database through one session, and
// defines the rules in every session.
bool StartStack(const std::string& data_dir, int num_sessions, Stack* stack,
                double* rules_ms) {
  auto server = Server::Start(rfid::server::ServerOptions());
  if (!server.ok()) {
    std::fprintf(stderr, "server: %s\n", server.status().ToString().c_str());
    return false;
  }
  stack->server = std::move(*server);
  for (int i = 0; i < num_sessions; ++i) {
    auto client = Client::Connect("127.0.0.1", stack->server->port());
    if (!client.ok()) {
      std::fprintf(stderr, "connect: %s\n", client.status().ToString().c_str());
      return false;
    }
    Session s;
    s.client = std::move(*client);
    stack->sessions.push_back(std::move(s));
  }
  auto loaded = stack->sessions[0].client->Command(".load " + data_dir);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load: %s\n", loaded.status().ToString().c_str());
    return false;
  }
  const double t0 = NowMs();
  for (Session& s : stack->sessions) {
    for (const std::string& def :
         rfid::workload::StandardRuleDefinitions(kRules)) {
      auto r = s.client->Command(".rule " + def);
      if (!r.ok()) {
        std::fprintf(stderr, "rule: %s\n", r.status().ToString().c_str());
        return false;
      }
    }
  }
  *rules_ms = NowMs() - t0;
  return true;
}

// Runs one round: every session issues its lookups in a closed loop,
// all sessions starting together.
void RunRound(const std::vector<std::string>& epcs, bool timed,
              Tracer* tracer, Stack* stack) {
  std::latch start(static_cast<std::ptrdiff_t>(stack->sessions.size()));
  std::vector<std::thread> threads;
  for (Session& s : stack->sessions) {
    threads.emplace_back([&epcs, timed, tracer, &start, &s] {
      start.arrive_and_wait();
      for (size_t e : s.epcs) {
        tracer->BeginOperation();
        const double t0 = NowMs();
        rfid::Result<rfid::server::RowsPayload> res = [&] {
          Tracer::Span span(tracer, "server.roundtrip");
          return s.client->Query(LookupSql(epcs[e]));
        }();
        const double ms = NowMs() - t0;
        if (timed) s.latencies.push_back(ms);
        if (!res.ok()) {
          ++(timed ? s.failed : s.warm_failed);
          std::fprintf(stderr, "[perfbench] lookup failed: %s\n",
                       res.status().ToString().c_str());
          continue;
        }
        const double exec_ms = static_cast<double>(res->elapsed_micros) / 1000;
        tracer->Sample("server.exec_ms", exec_ms);
        tracer->Sample("server.wire_ms", ms - exec_ms);
        s.answers.push_back({e, timed, std::move(res->rows)});
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

// Draws `n` indexes in [0, k) with P(rank r) proportional to 1/r, where
// ranks are a seeded permutation of the indexes.
std::vector<size_t> ZipfDraws(const std::vector<size_t>& rank_to_index,
                              size_t n, rfid::Random* rng) {
  std::vector<double> cdf(rank_to_index.size());
  double total = 0;
  for (size_t r = 0; r < cdf.size(); ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf[r] = total;
  }
  std::vector<size_t> out;
  for (size_t i = 0; i < n; ++i) {
    const double u =
        static_cast<double>(rng->Next() >> 11) / 9007199254740992.0 * total;
    const size_t r = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    out.push_back(rank_to_index[std::min(r, cdf.size() - 1)]);
  }
  return out;
}

}  // namespace

bool RunLookup(const Args& args, Tracer* tracer, Report* report) {
  const int num_sessions = static_cast<int>(std::min<unsigned>(
      kMaxSessions, std::max(1u, std::thread::hardware_concurrency())));

  // --- set-up, repeated; the last one is kept --------------------------
  // The generated database reaches the server as files (.load): the
  // server receives only the generated inputs.
  std::unique_ptr<rfid::Database> db;
  Stack stack;
  std::vector<double> setup_s, generate_s, rules_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    stack.Stop();
    stack.sessions.clear();
    db.reset();
    const std::string data_dir = rfid::StrFormat("%s/db-%d",
                                                 args.work_dir.c_str(), i);
    const double t0 = NowMs();
    db = MakeDb10(args.seed);
    if (db == nullptr) return false;
    rfid::Status saved = rfid::SaveDatabase(*db, data_dir);
    if (!saved.ok()) {
      std::fprintf(stderr, "save: %s\n", saved.ToString().c_str());
      return false;
    }
    const double t1 = NowMs();
    double rules_ms = 0;
    if (!StartStack(data_dir, num_sessions, &stack, &rules_ms)) return false;
    setup_s.push_back((NowMs() - t0) / 1000);
    generate_s.push_back((t1 - t0) / 1000);
    rules_s.push_back(rules_ms / 1000);
  }
  ReportSetup(setup_s, generate_s, rules_s, {}, report);

  // --- the lookups of one round ------------------------------------------
  std::vector<std::string> epcs;
  {
    const rfid::Table* case_r = db->GetTable("caseR");
    const size_t col =
        static_cast<size_t>(case_r->schema().FindColumn("epc"));
    for (size_t r = 0; r < case_r->num_rows(); ++r) {
      epcs.push_back(case_r->row(r)[col].string_value());
    }
    std::sort(epcs.begin(), epcs.end());
    epcs.erase(std::unique(epcs.begin(), epcs.end()), epcs.end());
  }
  rfid::Random rng(args.seed * 0x9e3779b97f4a7c15ULL + 2);
  std::vector<size_t> rank_to_index(epcs.size());
  for (size_t i = 0; i < rank_to_index.size(); ++i) rank_to_index[i] = i;
  for (size_t i = rank_to_index.size(); i > 1; --i) {
    std::swap(rank_to_index[i - 1], rank_to_index[rng.Uniform(i)]);
  }
  // Each round draws fresh lookups per session from the seeded stream.
  auto draw_round = [&] {
    for (Session& s : stack.sessions) {
      s.epcs = ZipfDraws(rank_to_index, kLookupsPerSession, &rng);
      s.all_epcs.insert(s.all_epcs.end(), s.epcs.begin(), s.epcs.end());
    }
  };

  // --- one untimed warm-up round, then the timed rounds ----------------
  // The warm-up is a round like the others rather than one pass per
  // distinct statement: pre-running every statement would fill the plan
  // cache this workload exists to measure.
  draw_round();
  RunRound(epcs, /*timed=*/false, tracer, &stack);
  const auto plan_before = stack.server->plan_cache_stats();
  const auto admission_before = stack.server->admission_stats();
  const auto fragments_before = stack.server->fragment_cache_stats();
  const size_t per_round = stack.sessions.size() * kLookupsPerSession;
  int rounds = RoundsFor(args.seconds, kNominalRoundS, per_round);
  if (args.trace) rounds = std::max(rounds, 2);
  std::vector<double> round_ms;
  double traced_ms = 0, untraced_ms = 0;
  size_t traced_n = 0, untraced_n = 0;
  for (int r = 0; r < rounds; ++r) {
    tracer->set_active(args.trace && r % 2 == 1);
    draw_round();
    // The server executes in this process, so the process-wide columnar
    // counters over a round are the segments its lookups scanned.
    const rfid::ColumnarCounters columnar_before =
        rfid::GlobalColumnarCounters();
    const double t0 = NowMs();
    RunRound(epcs, /*timed=*/true, tracer, &stack);
    round_ms.push_back(NowMs() - t0);
    const rfid::ColumnarCounters columnar_after =
        rfid::GlobalColumnarCounters();
    const double n = static_cast<double>(per_round);
    tracer->Sample("storage.segments_scanned",
                   static_cast<double>(columnar_after.segments_scanned -
                                       columnar_before.segments_scanned) / n);
    tracer->Sample("storage.segments_skipped",
                   static_cast<double>(columnar_after.segments_skipped -
                                       columnar_before.segments_skipped) / n);
    (tracer->active() ? traced_ms : untraced_ms) += round_ms.back();
    (tracer->active() ? traced_n : untraced_n) += per_round;
  }
  tracer->set_active(false);
  const auto plan_after = stack.server->plan_cache_stats();
  const auto admission_after = stack.server->admission_stats();
  const auto fragments_after = stack.server->fragment_cache_stats();
  stack.Stop();
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");

  std::vector<double> latencies;
  for (Session& s : stack.sessions) {
    latencies.insert(latencies.end(), s.latencies.begin(), s.latencies.end());
  }
  ReportQueryLatency(latencies, round_ms, per_round, report);
  if (args.trace) {
    ReportTraceOverhead(traced_n, traced_ms, untraced_n, untraced_ms, report);
  }
  const double hits = static_cast<double>(plan_after.hits - plan_before.hits);
  const double misses =
      static_cast<double>(plan_after.misses - plan_before.misses);
  report->Metric("server.plan_cache_hit_ratio",
                 hits / std::max(1.0, hits + misses), "ratio");
  report->Metric(
      "server.admission_queued",
      static_cast<double>(admission_after.queued - admission_before.queued),
      "count");
  report->Info("fragment_cache_hits",
               static_cast<double>(fragments_after.hits - fragments_before.hits));
  report->Info("fragment_cache_misses", static_cast<double>(
                                            fragments_after.misses -
                                            fragments_before.misses));

  // --- answer checks: a caseR copy cleansed once by the eager path -----
  auto rules = MakeRules(db.get(), kRules);
  if (rules == nullptr) return false;
  auto cleansed = EagerCleansedCaseR(*db, *rules);
  if (!cleansed.ok()) {
    report->CheckFailed("eager cleanse: " + cleansed.status().ToString());
    return true;
  }
  const rfid::Schema& schema = db->GetTable("caseR")->schema();
  const size_t epc_col = static_cast<size_t>(schema.FindColumn("epc"));
  const size_t out_cols[] = {static_cast<size_t>(schema.FindColumn("rtime")),
                             static_cast<size_t>(schema.FindColumn("biz_loc")),
                             static_cast<size_t>(schema.FindColumn("reader"))};
  std::map<std::string, std::vector<Row>> oracle;
  for (const Row& row : *cleansed) {
    Row out;
    for (size_t c : out_cols) out.push_back(row[c]);
    oracle[row[epc_col].string_value()].push_back(std::move(out));
  }
  size_t checked = 0;
  for (Session& s : stack.sessions) {
    report->failed += s.failed;
    if (s.warm_failed > 0) report->CheckFailed("warm-up lookups failed");
    for (Answer& a : s.answers) {
      ++checked;
      const std::string diff =
          DiffOrderedRows(oracle[epcs[a.epc]], std::move(a.rows), /*rtime*/ 0);
      if (diff.empty()) continue;
      if (a.timed) {
        ++report->failed;
        std::fprintf(stderr, "[perfbench] lookup %s: %s\n",
                     epcs[a.epc].c_str(), diff.c_str());
      } else {
        report->CheckFailed("warm-up lookup " + epcs[a.epc] + ": " + diff);
      }
    }
  }
  report->attempted = static_cast<uint64_t>(rounds) * per_round;

  // --- traced: parse and rewrite cost of the statements, client-side ---
  if (args.trace) {
    tracer->set_active(true);
    rfid::QueryRewriter rewriter(db.get(), rules.get());
    std::vector<size_t> seen;
    for (const Session& s : stack.sessions) {
      for (size_t e : s.all_epcs) {
        if (seen.size() == kTracedStatements) break;
        if (std::find(seen.begin(), seen.end(), e) != seen.end()) continue;
        seen.push_back(e);
        const std::string sql = LookupSql(epcs[e]);
        tracer->BeginOperation();
        {
          Tracer::Span span(tracer, "sql.parse");
          if (!rfid::ParseSql(sql).ok()) report->CheckFailed("parse " + sql);
        }
        rfid::Result<rfid::RewriteInfo> info = [&] {
          Tracer::Span span(tracer, "rewrite.derive");
          return rewriter.Rewrite(sql);
        }();
        if (!info.ok()) {
          report->CheckFailed("rewrite " + sql + ": " + info.status().ToString());
          continue;
        }
        tracer->Sample("rewrite.candidates",
                      static_cast<double>(info->candidates.size()));
      }
    }
    tracer->set_active(false);
    ReportTracedLayers(*tracer, report);
  }

  report->Info("scale", rfid::StrFormat(
                            "db-10: 40 pallets, %zu case reads, %zu case EPCs",
                            db->GetTable("caseR")->num_rows(), epcs.size()));
  report->Info("sessions", num_sessions);
  report->Info("rounds", rounds);
  report->Info("answers_checked", static_cast<double>(checked));
  std::vector<size_t> distinct;
  for (const Session& s : stack.sessions) {
    distinct.insert(distinct.end(), s.all_epcs.begin(), s.all_epcs.end());
  }
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  report->Info("distinct_statements", static_cast<double>(distinct.size()));
  return true;
}

}  // namespace perfbench
