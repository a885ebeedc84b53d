// Self-test of the benchmark's correctness oracle: on a small database the
// oracle must accept the engine's own answers, and must reject a single
// wrong label and a wrong count, so a run that reports "correct" could
// have reported otherwise.
//
//   perfbench_selftest DIR     (DIR receives a scratch database file)

#include <cstdio>
#include <string>

#include "harness.h"
#include "oracle.h"

namespace {

int failures = 0;

void Expect(bool cond, const char* what) {
  std::printf("%s: %s\n", cond ? "ok  " : "FAIL", what);
  if (!cond) ++failures;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : ".";
  const std::string path = dir + "/oracle_selftest.db";
  const perfbench::Corpus corpus = perfbench::MakeCorpus(7, 0.02);
  auto db = perfbench::BuildDatabase({"HAZY_MM", "EAGER", 1024}, corpus, path);
  if (!db.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", db.status().ToString().c_str());
    return 1;
  }
  hazy::engine::Database* d = db->get();
  auto expected = perfbench::ExpectedFromModel(d);
  if (!expected.ok() || expected->ids.empty()) {
    std::fprintf(stderr, "no expected labels\n");
    return 1;
  }
  const perfbench::LabelReader labels = perfbench::SqlLabelReader(d);
  const perfbench::CountReader counts = perfbench::SqlCountReader(d);

  const auto good = perfbench::Check(*expected, labels, counts);
  Expect(good.ok(), "engine answers agree with the model");

  const int64_t victim = expected->ids[expected->ids.size() / 2];
  const perfbench::LabelReader one_wrong = [&](int64_t id) -> hazy::StatusOr<std::string> {
    auto got = labels(id);
    if (!got.ok() || id != victim) return got;
    return std::string(*got == "DB" ? "OTHER" : "DB");
  };
  const auto bad_label = perfbench::Check(*expected, one_wrong, counts);
  Expect(!bad_label.ok() && bad_label.mismatches == 1, "one flipped label is rejected");

  const perfbench::CountReader off_by_one = [&](const std::string& label)
      -> hazy::StatusOr<uint64_t> {
    auto got = counts(label);
    if (!got.ok() || label != "DB") return got;
    return *got + 1;
  };
  const auto bad_count = perfbench::Check(*expected, labels, off_by_one);
  Expect(!bad_count.ok() && bad_count.mismatches == 1, "a count off by one is rejected");

  const perfbench::LabelReader failing = [](int64_t) -> hazy::StatusOr<std::string> {
    return hazy::Status::Internal("read failed");
  };
  Expect(!perfbench::Check(*expected, failing, counts).ok(), "failed reads are rejected");

  db->reset();
  perfbench::RemoveDatabaseFiles(path);
  return failures == 0 ? 0 : 1;
}
