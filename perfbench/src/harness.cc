#include "harness.h"

#include <cpuid.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "cleansing/chain.h"
#include "common/string_util.h"
#include "exec/operator.h"
#include "plan/planner.h"
#include "rfidgen/anomaly.h"
#include "rfidgen/rfidgen.h"
#include "rfidgen/workload.h"
#include "sql/parser.h"
#include "storage/columnar.h"

namespace perfbench {

using rfid::DataType;
using rfid::Value;

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int RoundsFor(int seconds, double nominal_round_s, size_t queries_per_round) {
  const size_t for_tail = (40 + queries_per_round - 1) / queries_per_round;
  return std::max(static_cast<int>(for_tail),
                  static_cast<int>(std::ceil(seconds / nominal_round_s)));
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double TailPercentileFor(size_t n) {
  // In tenths of a percent, so the "ten beyond" test is exact integer
  // arithmetic: n * (1000 - p) / 1000 >= 10.
  for (int p : {999, 990, 950, 900, 750}) {
    if (n * static_cast<size_t>(1000 - p) >= 10000) return p / 10.0;
  }
  return 0;
}

namespace {

// Total order over values for canonical sorting: by type, then value.
bool ValueLess(const Value& a, const Value& b) {
  if (a.type() != b.type()) return a.type() < b.type();
  switch (a.type()) {
    case DataType::kNull:
      return false;
    case DataType::kDouble:
      return a.double_value() < b.double_value();
    case DataType::kString:
      return a.string_value() < b.string_value();
    default:
      return a.int64_value() < b.int64_value();
  }
}

bool RowLess(const Row& a, const Row& b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end(),
                                      ValueLess);
}

bool ValueMatches(const Value& expected, const Value& actual) {
  if (expected.type() == DataType::kDouble &&
      actual.type() == DataType::kDouble) {
    const double e = expected.double_value();
    const double x = actual.double_value();
    if (std::isnan(e) || std::isnan(x)) return std::isnan(e) && std::isnan(x);
    return std::fabs(e - x) <= 1e-9 * std::max(1.0, std::fabs(e));
  }
  return expected.type() == actual.type() && expected == actual;
}

std::string RowText(const Row& row) {
  std::string s = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) s += ", ";
    s += row[i].ToString();
  }
  return s + ")";
}

}  // namespace

std::string DiffRowSets(std::vector<Row> expected, std::vector<Row> actual) {
  std::sort(expected.begin(), expected.end(), RowLess);
  std::sort(actual.begin(), actual.end(), RowLess);
  const size_t n = std::min(expected.size(), actual.size());
  for (size_t i = 0; i < n; ++i) {
    const Row& e = expected[i];
    const Row& a = actual[i];
    bool same = e.size() == a.size();
    for (size_t c = 0; same && c < e.size(); ++c) {
      same = ValueMatches(e[c], a[c]);
    }
    if (!same) {
      return rfid::StrFormat("row %zu differs: expected %s, got %s", i,
                             RowText(e).c_str(), RowText(a).c_str());
    }
  }
  if (expected.size() != actual.size()) {
    return rfid::StrFormat("expected %zu rows, got %zu", expected.size(),
                           actual.size());
  }
  return "";
}

std::string DiffOrderedRows(std::vector<Row> expected, std::vector<Row> actual,
                            size_t order_col) {
  for (size_t r = 1; r < actual.size(); ++r) {
    if (actual[r][order_col].Compare(actual[r - 1][order_col]) < 0) {
      return rfid::StrFormat("row %zu is out of order", r);
    }
  }
  return DiffRowSets(std::move(expected), std::move(actual));
}

// --- tracer -------------------------------------------------------------

namespace {
thread_local uint64_t t_current_span = 0;
thread_local uint64_t t_current_trace = 0;
}  // namespace

Tracer::Span::Span(Tracer* tracer, const char* name)
    : tracer_(tracer != nullptr && tracer->active() ? tracer : nullptr),
      name_(name),
      start_ms_(NowMs()) {
  if (tracer_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(tracer_->mu_);
    id_ = tracer_->next_id_++;
  }
  parent_ = t_current_span;
  t_current_span = id_;
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  t_current_span = parent_;
  tracer_->Finish({name_, id_, parent_, t_current_trace, start_ms_, NowMs()});
}

void Tracer::BeginOperation() {
  if (!active_) return;
  std::lock_guard<std::mutex> lock(mu_);
  t_current_trace = next_id_++;
}

void Tracer::Finish(const Record& r) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(r);
}

void Tracer::Sample(const std::string& name, double v) {
  if (!active_) return;
  std::lock_guard<std::mutex> lock(mu_);
  values_[name].push_back(v);
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Record& r : spans_) {
    if (name == r.name) out.push_back(r.end_ms - r.start_ms);
  }
  return out;
}

std::vector<double> Tracer::Samples(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = values_.find(name);
  return it == values_.end() ? std::vector<double>() : it->second;
}

bool Tracer::WriteSpans(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Record& r : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"trace\":%llu,"
                 "\"start_ms\":%.6f,\"end_ms\":%.6f}\n",
                 r.name, static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent),
                 static_cast<unsigned long long>(r.trace), r.start_ms,
                 r.end_ms);
  }
  return std::fclose(f) == 0;
}

// --- report -------------------------------------------------------------

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += rfid::StrFormat("\\u%04x", static_cast<unsigned>(c));
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  return rfid::StrFormat("%.17g", v);
}

}  // namespace

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::Info(const std::string& key, const std::string& value) {
  info_[key] = JsonString(value);
}

void Report::Info(const std::string& key, double value) {
  info_[key] = JsonNumber(value);
}

void Report::CheckFailed(const std::string& what) {
  std::fprintf(stderr, "[perfbench] check failed: %s\n", what.c_str());
  check_failures_.push_back(what);
}

std::string Report::InfoJson() const {
  std::string s = "{\"report\": {";
  bool first = true;
  for (const auto& [k, v] : info_) {
    if (!first) s += ", ";
    first = false;
    s += JsonString(k) + ": " + v;
  }
  s += rfid::StrFormat(", \"attempted\": %llu, \"failed\": %llu",
                       static_cast<unsigned long long>(attempted),
                       static_cast<unsigned long long>(failed));
  s += ", \"check_failures\": [";
  for (size_t i = 0; i < check_failures_.size(); ++i) {
    if (i > 0) s += ", ";
    s += JsonString(check_failures_[i]);
  }
  return s + "]}}";
}

std::string Report::ResultJson() const {
  std::string s = rfid::StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      correct() ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    if (!first) s += ", ";
    first = false;
    s += JsonString(name) + ": {\"value\": " + JsonNumber(metric.first) +
         ", \"unit\": " + JsonString(metric.second) + "}";
  }
  return s + "}}";
}

std::string CpuModel() {
  unsigned int regs[12] = {};
  unsigned int max_leaf = __get_cpuid_max(0x80000000, nullptr);
  if (max_leaf < 0x80000004) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002 + i, &regs[i * 4], &regs[i * 4 + 1],
                &regs[i * 4 + 2], &regs[i * 4 + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const size_t b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- workload helpers ---------------------------------------------------

std::unique_ptr<rfid::Database> MakeDb10(uint64_t seed) {
  auto db = std::make_unique<rfid::Database>();
  rfid::rfidgen::GeneratorOptions gen;
  // The repository's bench dataset (bench/bench_common.h): the table
  // sizes of the paper's experiments scaled to 40 pallets.
  gen.seed = 20060912;
  gen.num_pallets = 40;
  gen.num_stores = 100;
  gen.num_warehouses = 25;
  gen.num_dcs = 5;
  gen.locations_per_site = 10;
  auto g = rfid::rfidgen::Generate(gen, db.get());
  if (!g.ok()) {
    std::fprintf(stderr, "generate: %s\n", g.status().ToString().c_str());
    return nullptr;
  }
  rfid::rfidgen::AnomalyOptions anomalies;
  anomalies.seed = seed;
  anomalies.dirty_fraction = 0.10;
  auto a = rfid::rfidgen::InjectAnomalies(anomalies, db.get());
  if (!a.ok()) {
    std::fprintf(stderr, "anomalies: %s\n", a.status().ToString().c_str());
    return nullptr;
  }
  return db;
}

std::unique_ptr<rfid::CleansingRuleEngine> MakeRules(rfid::Database* db,
                                                     int num_rules) {
  auto engine = std::make_unique<rfid::CleansingRuleEngine>(db);
  for (const std::string& def :
       rfid::workload::StandardRuleDefinitions(num_rules)) {
    rfid::Status st = engine->DefineRule(def);
    if (!st.ok()) {
      std::fprintf(stderr, "rule: %s\n", st.ToString().c_str());
      return nullptr;
    }
  }
  return engine;
}

namespace {

struct TreeCounts {
  uint64_t window_rows = 0;
  uint64_t scanned_rows = 0;
};

void CountTree(const rfid::Operator& op, TreeCounts* counts) {
  const std::string name = op.name();
  if (name == "Window") counts->window_rows += op.rows_produced();
  if (name == "TableScan" || name == "ParallelTableScan" ||
      name == "IndexRangeScan" || name == "FragmentScan") {
    counts->scanned_rows += op.rows_produced();
  }
  for (const rfid::Operator* child : op.children()) CountTree(*child, counts);
}

}  // namespace

rfid::Result<std::vector<Row>> RunSql(const rfid::Database& db,
                                      const std::string& sql,
                                      rfid::ExecContext* ctx, Tracer* tracer) {
  rfid::StatementPtr stmt;
  {
    Tracer::Span span(tracer, "sql.parse");
    RFID_ASSIGN_OR_RETURN(stmt, rfid::ParseSql(sql));
  }
  rfid::PlannedQuery plan;
  {
    Tracer::Span span(tracer, "plan.plan");
    rfid::Planner planner(&db, ctx);
    RFID_ASSIGN_OR_RETURN(plan, planner.Plan(*stmt));
  }
  const bool traced = tracer != nullptr && tracer->active();
  const rfid::ColumnarCounters before =
      traced ? rfid::GlobalColumnarCounters() : rfid::ColumnarCounters();
  std::vector<Row> rows;
  {
    Tracer::Span span(tracer, "exec.execute");
    RFID_ASSIGN_OR_RETURN(rows, rfid::CollectRows(plan.root.get(), ctx));
  }
  if (traced) {
    const rfid::ColumnarCounters after = rfid::GlobalColumnarCounters();
    TreeCounts counts;
    CountTree(*plan.root, &counts);
    tracer->Sample("plan.dop", plan.max_dop);
    tracer->Sample("exec.window_rows", static_cast<double>(counts.window_rows));
    tracer->Sample("exec.rows_scanned_per_row_out",
                  static_cast<double>(counts.scanned_rows) /
                      static_cast<double>(std::max<size_t>(1, rows.size())));
    tracer->Sample("exec.peak_mem_mb",
                  static_cast<double>(ctx->memory_peak()) / (1 << 20));
    tracer->Sample("storage.segments_scanned",
                  static_cast<double>(after.segments_scanned -
                                      before.segments_scanned));
    tracer->Sample("storage.segments_skipped",
                  static_cast<double>(after.segments_skipped -
                                      before.segments_skipped));
  }
  return rows;
}

rfid::Result<std::vector<Row>> EagerCleansedCaseR(
    const rfid::Database& db, const rfid::CleansingRuleEngine& rules) {
  const rfid::Table* case_r = db.GetTable("caseR");
  if (case_r == nullptr) return rfid::Status::NotFound("caseR");
  std::vector<const rfid::CleansingRule*> chain_rules;
  for (const rfid::CleansingRule& r : rules.rules()) chain_rules.push_back(&r);
  RFID_ASSIGN_OR_RETURN(
      rfid::CleansingChain chain,
      rfid::BuildCleansingChain(chain_rules, db, "__input",
                                case_r->schema().columns()));
  std::string sql = "WITH __input AS (SELECT * FROM caseR)";
  for (const auto& [name, body] : chain.with_clauses) {
    sql += ", " + name + " AS (" + body + ")";
  }
  std::string columns;
  for (const rfid::Column& c : case_r->schema().columns()) {
    columns += (columns.empty() ? "" : ", ") + c.name;
  }
  sql += " SELECT " + columns + " FROM " + chain.output_name;
  rfid::ExecContext ctx;
  return RunSql(db, sql, &ctx, nullptr);
}

double Median(const std::vector<double>& v) { return Percentile(v, 50); }

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

void ReportQueryLatency(const std::vector<double>& latencies_ms,
                        const std::vector<double>& round_ms,
                        size_t queries_per_round, Report* report) {
  const double tail = TailPercentileFor(latencies_ms.size());
  report->Metric("qps",
                 static_cast<double>(queries_per_round) /
                     (Percentile(round_ms, 50) / 1000.0),
                 "1/s");
  report->Metric("query_p50_ms", Percentile(latencies_ms, 50), "ms");
  if (tail > 0) {
    report->Metric("query_tail_ms", Percentile(latencies_ms, tail), "ms");
  }
  report->Info("query_samples", static_cast<double>(latencies_ms.size()));
  report->Info("query_tail_percentile", tail);
  double measured_ms = 0;
  for (double ms : round_ms) measured_ms += ms;
  report->Info("measured_s", measured_ms / 1000.0);
}

void ReportTraceOverhead(size_t traced_n, double traced_ms, size_t untraced_n,
                         double untraced_ms, Report* report) {
  if (traced_n == 0 || untraced_n == 0) return;
  const double traced_rate = static_cast<double>(traced_n) / traced_ms;
  const double untraced_rate = static_cast<double>(untraced_n) / untraced_ms;
  report->Metric("trace.overhead_pct", (untraced_rate / traced_rate - 1) * 100,
                 "%");
}

void ReportTracedLayers(const Tracer& tracer, Report* report) {
  const std::pair<const char*, const char*> spans[] = {
      {"sql.parse", "sql.parse_ms"},
      {"rewrite.derive", "rewrite.derive_ms"},
      {"plan.plan", "plan.plan_ms"},
      {"exec.execute", "exec.execute_ms"},
      {"server.roundtrip", "server.roundtrip_ms"},
      {"cache.stitch", "cache.stitch_ms"},
      {"ingest.apply", "ingest.apply_ms"},
      {"wal.checkpoint", "wal.checkpoint_ms"},
      {"wal.recover", "wal.recover_ms"},
  };
  for (const auto& [span, metric] : spans) {
    std::vector<double> d = tracer.Durations(span);
    if (!d.empty()) report->Metric(metric, Median(d), "ms");
  }
  const std::pair<const char*, const char*> means[] = {
      {"rewrite.candidates", "count"},
      {"plan.dop", "count"},
      {"exec.window_rows", "count"},
      {"exec.rows_scanned_per_row_out", "ratio"},
      {"storage.segments_scanned", "count"},
      {"storage.segments_skipped", "count"},
  };
  for (const auto& [name, unit] : means) {
    std::vector<double> v = tracer.Samples(name);
    if (!v.empty()) report->Metric(name, Mean(v), unit);
  }
  for (const char* name : {"server.exec_ms", "server.wire_ms"}) {
    std::vector<double> v = tracer.Samples(name);
    if (!v.empty()) report->Metric(name, Median(v), "ms");
  }
  std::vector<double> mem = tracer.Samples("exec.peak_mem_mb");
  if (!mem.empty()) {
    report->Metric("exec.peak_mem_mb", *std::max_element(mem.begin(), mem.end()),
                   "MB");
  }
}

void ReportSetup(const std::vector<double>& setup_s,
                 const std::vector<double>& generate_s,
                 const std::vector<double>& rules_s,
                 const std::vector<double>& warm_feed_s, Report* report) {
  report->Metric("setup_s", Median(setup_s), "s");
  report->Metric("setup.generate_s", Median(generate_s), "s");
  report->Metric("setup.rules_s", Median(rules_s), "s");
  if (!warm_feed_s.empty()) {
    report->Metric("setup.warm_feed_s", Median(warm_feed_s), "s");
  }
  report->Info("setup_repeats", static_cast<double>(setup_s.size()));
}

}  // namespace perfbench
