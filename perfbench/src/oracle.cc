#include "oracle.h"

#include <memory>
#include <mutex>

#include "harness.h"
#include "sql/executor.h"

namespace perfbench {

using hazy::Status;
using hazy::StatusOr;

StatusOr<Expected> ExpectedFromModel(hazy::engine::Database* db) {
  std::lock_guard<std::recursive_mutex> lock(*db->statement_mutex());
  HAZY_ASSIGN_OR_RETURN(hazy::engine::ManagedView * mv, db->GetView("V"));
  std::vector<hazy::core::Entity> entities;
  HAZY_RETURN_NOT_OK(mv->view()->ExportEntities(&entities));
  const hazy::ml::LinearModel& model = mv->view()->model();
  Expected e;
  for (const std::string& label : mv->labels()) e.counts[label] = 0;
  e.ids.reserve(entities.size());
  e.labels.reserve(entities.size());
  for (const auto& entity : entities) {
    const std::string& label = mv->LabelString(model.Classify(entity.features));
    e.ids.push_back(entity.id);
    e.labels.push_back(label);
    ++e.counts[label];
  }
  return e;
}

OracleReport Check(const Expected& expected, const LabelReader& label_of,
                   const CountReader& count_of) {
  OracleReport r;
  auto mismatch = [&r](const std::string& what) {
    if (r.mismatches++ == 0) r.first_mismatch = what;
  };
  r.answered.ids = expected.ids;
  r.answered.labels.reserve(expected.ids.size());
  for (size_t i = 0; i < expected.ids.size(); ++i) {
    ++r.checked;
    auto got = label_of(expected.ids[i]);
    r.answered.labels.push_back(got.ok() ? *got : "<error>");
    if (!got.ok() || *got != expected.labels[i]) {
      mismatch("id " + std::to_string(expected.ids[i]) + ": expected '" +
               expected.labels[i] + "', got '" + r.answered.labels.back() + "'");
    }
  }
  for (const auto& [label, want] : expected.counts) {
    ++r.checked;
    auto got = count_of(label);
    r.answered.counts[label] = got.ok() ? *got : 0;
    if (!got.ok() || *got != want) {
      mismatch("COUNT(" + label + "): expected " + std::to_string(want) + ", got " +
               (got.ok() ? std::to_string(*got) : got.status().ToString()));
    }
  }
  return r;
}

LabelReader SqlLabelReader(hazy::engine::Database* db) {
  auto exec = std::make_shared<hazy::sql::Executor>(db);
  auto trace = std::make_shared<ThreadTrace>();
  return [db, exec, trace](int64_t id) -> StatusOr<std::string> {
    HAZY_ASSIGN_OR_RETURN(hazy::sql::ResultSet rs,
                          ExecSql(db, exec.get(), trace.get(), PointSql(id)));
    if (rs.rows.size() != 1) {
      return Status::Internal("point read returned " + std::to_string(rs.rows.size()) +
                              " rows");
    }
    return rs.TextAt(0, 0);
  };
}

CountReader SqlCountReader(hazy::engine::Database* db) {
  auto exec = std::make_shared<hazy::sql::Executor>(db);
  auto trace = std::make_shared<ThreadTrace>();
  return [db, exec, trace](const std::string& label) -> StatusOr<uint64_t> {
    HAZY_ASSIGN_OR_RETURN(
        hazy::sql::ResultSet rs,
        ExecSql(db, exec.get(), trace.get(),
                "SELECT COUNT(*) FROM V WHERE class = '" + label + "'"));
    if (rs.rows.size() != 1) return Status::Internal("count returned no row");
    HAZY_ASSIGN_OR_RETURN(int64_t n, rs.Int64At(0, 0));
    return static_cast<uint64_t>(n);
  };
}

}  // namespace perfbench
