// A relational table: schema + heap file + optional primary-key hash index
// + insert/delete observers (the trigger mechanism the engine uses to keep
// classification views in sync, mirroring the paper's PostgreSQL triggers).

#ifndef HAZY_STORAGE_TABLE_H_
#define HAZY_STORAGE_TABLE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/hash_index.h"
#include "storage/heap_file.h"
#include "storage/schema.h"
#include "storage/statement_lock.h"
#include "storage/wal.h"

namespace hazy::storage {

/// \brief Heap-backed table with typed rows.
class Table {
 public:
  /// Trigger callback: fired after a row mutation commits to the heap.
  using Trigger = std::function<Status(const Row&)>;
  /// Update trigger: receives the old and new row images.
  using UpdateTrigger = std::function<Status(const Row& old_row, const Row& new_row)>;

  /// `primary_key`: column index of the PK (or nullopt for none). With a PK,
  /// a hash index accelerates point lookups and rejects duplicates.
  Table(std::string name, Schema schema, BufferPool* pool,
        std::optional<size_t> primary_key);

  /// Allocates backing storage. Must be called once.
  Status Create();

  /// Recovery path: re-attaches to an existing heap chain (from checkpointed
  /// metadata) and rebuilds the in-memory primary-key index with one scan.
  Status Attach(const HeapFileMeta& meta);

  /// Heap metadata snapshot, persisted by the checkpoint subsystem.
  HeapFileMeta heap_meta() const { return heap_->Meta(); }

  /// Inserts a row (fires insert triggers after the write).
  Status Insert(const Row& row);

  /// Point lookup by primary key.
  StatusOr<Row> GetByKey(int64_t key) const;

  /// Deletes by primary key (fires delete triggers). NotFound if absent.
  Status DeleteByKey(int64_t key);

  /// Replaces the row with primary key `key` (fires update triggers with
  /// both images). The new row must keep the same key.
  Status UpdateByKey(int64_t key, const Row& new_row);

  /// Scans all rows; `fn` returns true to continue.
  Status Scan(const std::function<bool(const Row&)>& fn) const;

  /// Registers a post-insert / post-delete / post-update trigger.
  void AddInsertTrigger(Trigger t) { insert_triggers_.push_back(std::move(t)); }
  void AddDeleteTrigger(Trigger t) { delete_triggers_.push_back(std::move(t)); }
  void AddUpdateTrigger(UpdateTrigger t) { update_triggers_.push_back(std::move(t)); }

  /// Attaches the write-ahead log: row mutations append logical records and
  /// auto-commit once the operation (triggers included) has fully applied.
  /// Recovery replays the records through these same entry points.
  void SetWal(Wal* wal) { wal_ = wal; }

  /// Attaches the statement lock: row mutations hold it, so a checkpoint
  /// commit never interleaves with one.
  void SetStatementLock(StatementLock* lock) { stmt_lock_ = lock; }

  /// Every page this table's heap owns (data + overflow chains); the
  /// recovery mark-and-sweep's reachability input.
  Status CollectPages(std::vector<uint32_t>* out) const {
    return heap_->CollectPages(out);
  }

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  uint64_t num_rows() const { return heap_->num_records(); }
  std::optional<size_t> primary_key() const { return primary_key_; }

 private:
  /// Appends a row-level logical WAL record in the compact varint layout
  /// (no-op without a WAL). `row` is required for insert/update ops.
  Status LogRowOp(WalOp op, int64_t key, const Row* row);

  /// Fires `triggers` then commits the mutation's logical record. Commits
  /// even when a trigger fails: the heap mutation DID apply (the live state
  /// the caller observes), and an uncommitted record would be swept into
  /// the next statement's commit marker. Returns the first trigger error.
  Status FireAndCommit(const std::vector<Trigger>& triggers, const Row& row);
  Status FireAndCommit(const std::vector<UpdateTrigger>& triggers, const Row& old_row,
                       const Row& new_row);

  std::string name_;
  Schema schema_;
  std::unique_ptr<HeapFile> heap_;
  std::optional<size_t> primary_key_;
  HashIndex pk_index_;
  Wal* wal_ = nullptr;
  StatementLock* stmt_lock_ = nullptr;
  std::vector<Trigger> insert_triggers_;
  std::vector<Trigger> delete_triggers_;
  std::vector<UpdateTrigger> update_triggers_;
};

/// \brief Named collection of tables sharing one buffer pool.
class Catalog {
 public:
  explicit Catalog(BufferPool* pool) : pool_(pool) {}

  /// Creates a table; AlreadyExists if the name is taken.
  StatusOr<Table*> CreateTable(const std::string& name, Schema schema,
                               std::optional<size_t> primary_key);

  /// Recovery path: registers a table over an existing heap chain instead of
  /// allocating fresh storage (see Table::Attach).
  StatusOr<Table*> AttachTable(const std::string& name, Schema schema,
                               std::optional<size_t> primary_key,
                               const HeapFileMeta& meta);

  /// Finds a table by name (case-insensitive).
  StatusOr<Table*> GetTable(const std::string& name) const;

  bool HasTable(const std::string& name) const;

  std::vector<std::string> TableNames() const;

  /// Attaches the write-ahead log: CREATE TABLE is logged as DDL, and every
  /// table (existing and future) logs its row mutations through it.
  void SetWal(Wal* wal);

  /// Attaches the statement lock to every table (existing and future).
  void SetStatementLock(StatementLock* lock);

 private:
  BufferPool* pool_;
  Wal* wal_ = nullptr;
  StatementLock* stmt_lock_ = nullptr;
  std::vector<std::unique_ptr<Table>> tables_;
};

}  // namespace hazy::storage

#endif  // HAZY_STORAGE_TABLE_H_
