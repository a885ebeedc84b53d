// The benchmark's correctness oracle. A classification view is correct when
// every entity's label equals the current model's classification of that
// entity's features (the paper's definition of the view V(id, class)). The
// oracle recomputes that from ClassificationView::model() over
// ExportEntities(), then reads every label and each class count through
// SQL and compares.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/database.h"

namespace perfbench {

/// What the view must answer: a label per entity and a count per label.
struct Expected {
  std::vector<int64_t> ids;
  std::vector<std::string> labels;  // parallel to ids
  std::map<std::string, uint64_t> counts;
};

/// The labels view "V" must hold under its current model. Call only while
/// no statement runs (it reads the core view directly).
hazy::StatusOr<Expected> ExpectedFromModel(hazy::engine::Database* db);

using LabelReader = std::function<hazy::StatusOr<std::string>(int64_t id)>;
using CountReader = std::function<hazy::StatusOr<uint64_t>(const std::string& label)>;

struct OracleReport {
  uint64_t checked = 0;
  uint64_t mismatches = 0;
  std::string first_mismatch;
  /// What the readers answered, usable as the Expected of a later check.
  Expected answered;
  bool ok() const { return checked > 0 && mismatches == 0; }
};

/// Reads every expected id and every expected count through the readers and
/// counts the answers that differ (a failed read is a mismatch).
OracleReport Check(const Expected& expected, const LabelReader& label_of,
                   const CountReader& count_of);

/// Readers that go through SQL (`SELECT class FROM V WHERE id = k` and
/// `SELECT COUNT(*) FROM V WHERE class = 'label'`).
LabelReader SqlLabelReader(hazy::engine::Database* db);
CountReader SqlCountReader(hazy::engine::Database* db);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
