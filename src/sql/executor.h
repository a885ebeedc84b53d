// Executes parsed statements against a Database. SELECTs over a
// classification view answer from the view's published epoch snapshot,
// dispatched by shape the way the paper's UDF/trigger plumbing reroutes
// PostgreSQL queries (B.1):
//   WHERE <key> = k       -> Single Entity read
//   WHERE class = 'label' -> All Members
//   COUNT(*) variants     -> All Members count

#ifndef HAZY_SQL_EXECUTOR_H_
#define HAZY_SQL_EXECUTOR_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "engine/database.h"
#include "obs/trace.h"
#include "sql/ast.h"
#include "sql/parser.h"
#include "sql/result_set.h"

namespace hazy::sql {

/// \brief Statement executor bound to one Database.
///
/// Parsing and execution are split: Parse/ParseTemplate (sql/parser.h) turn
/// text into a Statement once, Execute(const Statement&) runs it — so a
/// prepared statement parses once and executes many times with BindParams.
/// The string overload is the convenience composition of the two.
class Executor {
 public:
  explicit Executor(engine::Database* db) : db_(db) {}

  /// Parses and executes one statement (Parse + Execute). When no trace is
  /// already installed on this thread, the whole statement runs under the
  /// executor's own TraceContext: parse/execute spans, subsystem events,
  /// the statement latency histogram, and the slow-statement log. The
  /// resulting span rows are kept for SHOW TRACE.
  StatusOr<ResultSet> Execute(const std::string& sql);

  /// Executes an already-parsed statement.
  StatusOr<ResultSet> Execute(const Statement& stmt);

  /// Executes a prepared template with `params` bound to its '?' slots
  /// (BindParams + Execute).
  StatusOr<ResultSet> Execute(const PreparedStatement& prepared,
                              const std::vector<storage::Value>& params);

  /// Span rows of the last traced statement (what SHOW TRACE returns).
  const std::vector<obs::TraceRow>& last_trace() const {
    return last_trace_rows_;
  }

 private:
  StatusOr<ResultSet> ExecCreateTable(const CreateTableStmt& stmt);
  StatusOr<ResultSet> ExecCreateView(const CreateViewStmt& stmt);
  StatusOr<ResultSet> ExecInsert(const InsertStmt& stmt);
  /// Dispatches a SELECT. Resolves the target name to a view/table pointer
  /// only while registered as a snapshot reader (SnapshotReadScope) or,
  /// when a VACUUM swap refuses registration, behind the statement mutex —
  /// a pointer resolved unprotected could be freed by the swap's teardown
  /// before the read registers (use-after-free).
  StatusOr<ResultSet> ExecSelect(const SelectStmt& stmt);
  /// Scans a base table (caller holds the protection ExecSelect describes).
  StatusOr<ResultSet> ExecSelectTable(const SelectStmt& stmt);
  /// Answers a view SELECT — every read shape — from the view's pinned
  /// epoch snapshot, without taking the statement gate or folding pending
  /// trigger updates: readers see the last published batch boundary (MVCC
  /// semantics). The caller keeps `view` valid (ExecSelect's scope or
  /// statement-mutex hold).
  StatusOr<ResultSet> ExecSelectView(const SelectStmt& stmt, engine::ManagedView* view);
  StatusOr<ResultSet> ExecDelete(const DeleteStmt& stmt);
  StatusOr<ResultSet> ExecUpdate(const UpdateStmt& stmt);
  StatusOr<ResultSet> ExecCheckpoint();
  StatusOr<ResultSet> ExecVacuum();
  StatusOr<ResultSet> ExecPragma(const PragmaStmt& stmt);
  StatusOr<ResultSet> ExecShowMetrics(const ShowMetricsStmt& stmt);
  StatusOr<ResultSet> ExecShowTrace();
  StatusOr<ResultSet> ExecExplainTrace(const ExplainTraceStmt& stmt);

  /// Statement-latency histogram, SHOW TRACE bookkeeping, and the slow log
  /// for one completed trace (`sql` only for the log line).
  void FinishStatementTrace(const std::string& sql, bool save_last_trace);

  engine::Database* db_;
  /// Reused across statements (Clear keeps allocations).
  obs::TraceContext trace_;
  std::vector<obs::TraceRow> last_trace_rows_;
};

/// True if `row` satisfies `pred` under `schema`.
StatusOr<bool> MatchesPredicate(const storage::Schema& schema, const storage::Row& row,
                                const Predicate& pred);

/// True when `stmt` is a SELECT over a classification view. Every view
/// answers SQL reads from its published epoch, so such statements read
/// immutable state and may run without the whole-statement mutex
/// (server/session.cc uses this to let reads bypass a saturating update
/// stream). The check dereferences no view, so a concurrent VACUUM cannot
/// invalidate it.
bool IsSnapshotRead(engine::Database* db, const Statement& stmt);

}  // namespace hazy::sql

#endif  // HAZY_SQL_EXECUTOR_H_
