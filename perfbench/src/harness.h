// Shared machinery of the repository benchmark: command-line arguments,
// timing, the in-memory span tracer, percentile selection, answer
// comparison, the JSON report, and the helpers the three workloads share
// (db-10 generation, the standard rules, staged query execution).
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cleansing/rule.h"
#include "exec/exec_context.h"
#include "storage/catalog.h"

namespace perfbench {

using rfid::Row;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string work_dir;  // scratch space inside the checkout
  std::string git_sha;  // reported only
};

/// Milliseconds on the steady clock.
double NowMs();

/// Number of whole rounds a run performs: enough rounds of a workload
/// whose round takes about `nominal_round_s` on the reference host to
/// fill `seconds`, and at least enough for 40 queries (the fewest that
/// support a tail percentile) at `queries_per_round`. Fixed for given
/// arguments, so every run of a workload does the same list of
/// operations however fast the program is.
int RoundsFor(int seconds, double nominal_round_s, size_t queries_per_round);

/// Linear-interpolated percentile (p in [0, 100]); 0 for no samples.
double Percentile(std::vector<double> v, double p);

/// The highest of p99.9, p99, p95, p90 and p75 that has at least ten of
/// `n` samples beyond it, or 0 when n < 40 (the median alone is then the
/// only honest figure).
double TailPercentileFor(size_t n);

/// Compares two result sets as multisets of rows. Doubles match within a
/// relative 1e-9 (parallel aggregation may sum in another order); every
/// other value must match exactly. Returns "" when they agree, else a
/// description of the first difference.
std::string DiffRowSets(std::vector<Row> expected, std::vector<Row> actual);

/// DiffRowSets for an answer that must also come back sorted by column
/// `order_col` (an ORDER BY answer; ties may come in any order).
std::string DiffOrderedRows(std::vector<Row> expected, std::vector<Row> actual,
                            size_t order_col);

/// Spans and per-operation values recorded while active. Spans are kept
/// in memory and written out when the run ends; a span's parent is the
/// span open on the same thread when it began, and every span of one
/// operation carries that operation's trace id.
class Tracer {
 public:
  class Span {
   public:
    Span(Tracer* tracer, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;  // null when the tracer was inactive at construction
    const char* name_;
    uint64_t id_ = 0;
    uint64_t parent_ = 0;
    double start_ms_ = 0;
  };

  void set_active(bool active) { active_ = active; }
  bool active() const { return active_; }

  /// Starts a new trace id for the operations that follow on this thread.
  void BeginOperation();

  /// Records one sample of a named per-operation value (counts, ratios).
  void Sample(const std::string& name, double v);

  /// Durations (ms) of every recorded span with this name.
  std::vector<double> Durations(const std::string& name) const;
  std::vector<double> Samples(const std::string& name) const;

  /// Writes every span as one JSON object per line.
  bool WriteSpans(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    uint64_t id;
    uint64_t parent;
    uint64_t trace;
    double start_ms;
    double end_ms;
  };
  void Finish(const Record& r);

  bool active_ = false;
  mutable std::mutex mu_;
  std::vector<Record> spans_;
  std::map<std::string, std::vector<double>> values_;
  uint64_t next_id_ = 1;
};

/// The run's result: metrics by name with units, operation counts, and
/// descriptive fields (seed, scale, sample counts, host).
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Info(const std::string& key, const std::string& value);
  void Info(const std::string& key, double value);

  /// Marks an answer check as failed (correct becomes false).
  void CheckFailed(const std::string& what);

  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct() const { return check_failures_.empty(); }

  /// The descriptive report (one JSON object).
  std::string InfoJson() const;

  /// The result line: correct, attempted, failed and every metric the
  /// run measured, by name with its unit.
  std::string ResultJson() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::map<std::string, std::string> info_;  // values already JSON-encoded
  std::vector<std::string> check_failures_;
};

/// Host description: hardware threads and CPU model (from cpuid).
std::string CpuModel();

/// Peak resident set of this process so far, in MB.
double PeakRssMb();

// --- shared workload helpers -------------------------------------------

/// db-10 at the paper's bench scale: 40 pallets (~63k case reads) of the
/// fixed RFIDGen dataset every repository harness uses, with 10% of reads
/// made anomalous at positions drawn from `seed`.
std::unique_ptr<rfid::Database> MakeDb10(uint64_t seed);

/// A rule catalog holding the first `num_rules` standard rules.
std::unique_ptr<rfid::CleansingRuleEngine> MakeRules(rfid::Database* db,
                                                     int num_rules);

/// Parses, plans and executes `sql` under `ctx`, with one span per stage
/// (sql.parse, plan.plan, exec.execute). While the tracer is active it
/// also records plan.dop, exec.window_rows, exec.rows_scanned_per_row_out,
/// exec.peak_mem_mb and the columnar segment counters of this query.
rfid::Result<std::vector<Row>> RunSql(const rfid::Database& db,
                                      const std::string& sql,
                                      rfid::ExecContext* ctx, Tracer* tracer);

/// caseR cleansed once by the eager path: the whole cleansing chain
/// (BuildCleansingChain) applied to the full table, projected to
/// caseR's columns.
rfid::Result<std::vector<Row>> EagerCleansedCaseR(
    const rfid::Database& db, const rfid::CleansingRuleEngine& rules);

/// Summary helpers for the per-layer metrics.
double Median(const std::vector<double>& v);
double Mean(const std::vector<double>& v);

/// Runs one workload; returns false on a set-up error (the run then
/// prints no result).
bool RunAnalytic(const Args& args, Tracer* tracer, Report* report);
bool RunLookup(const Args& args, Tracer* tracer, Report* report);
bool RunLive(const Args& args, Tracer* tracer, Report* report);

/// Reports the query-latency summary shared by every workload: qps (the
/// query rate of the median round, so a slow stretch of the host inside
/// one round does not move it), query_p50_ms, query_tail_ms and the
/// percentile and sample count behind them. `round_ms` holds the wall
/// time of each timed round of `queries_per_round` queries.
void ReportQueryLatency(const std::vector<double>& latencies_ms,
                        const std::vector<double>& round_ms,
                        size_t queries_per_round, Report* report);

/// Reports trace.overhead_pct: how much faster untraced rounds ran than
/// traced ones, from operations and wall time of each kind of round.
void ReportTraceOverhead(size_t traced_n, double traced_ms, size_t untraced_n,
                         double untraced_ms, Report* report);

/// Reports the per-layer metrics derived from recorded spans and values:
/// span medians as *_ms, per-operation values as means (peak memory as a
/// maximum). Layers with no samples are left out.
void ReportTracedLayers(const Tracer& tracer, Report* report);

/// Reports setup_s (median of the repeated set-ups) and the per-stage
/// set-up medians; `warm_feed_s` is empty for workloads without a warm
/// feed.
void ReportSetup(const std::vector<double>& setup_s,
                 const std::vector<double>& generate_s,
                 const std::vector<double>& rules_s,
                 const std::vector<double>& warm_feed_s, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
