#include "serve/snapshot.h"

#include "common/metrics.h"

namespace laws {
namespace {

Counter* CommitCounter() {
  static Counter* c = MetricsRegistry::Global().GetCounter("serve.commits");
  return c;
}

}  // namespace

SnapshotCatalog::SnapshotCatalog()
    : current_(std::make_shared<DatabaseSnapshot>()) {}

SnapshotPtr SnapshotCatalog::Pin() const {
  std::lock_guard<std::mutex> lock(publish_mutex_);
  return current_;
}

Status SnapshotCatalog::Commit(
    const std::function<Status(DatabaseSnapshot*)>& mutate) {
  std::lock_guard<std::mutex> commit_lock(commit_mutex_);
  SnapshotPtr base = Pin();
  auto next = std::make_shared<DatabaseSnapshot>();
  next->epoch = base->epoch + 1;
  next->tables = base->tables.Clone();
  next->models = base->models.Clone();
  next->domains = base->domains;
  LAWS_RETURN_IF_ERROR(mutate(next.get()));
  {
    std::lock_guard<std::mutex> publish_lock(publish_mutex_);
    current_ = std::move(next);
  }
  CommitCounter()->Add();
  return Status::OK();
}

Result<TablePtr> SnapshotCatalog::MutableTableForWrite(
    DatabaseSnapshot* db, const std::string& name) {
  LAWS_ASSIGN_OR_RETURN(TablePtr shared, db->tables.Get(name));
  auto writable = std::make_shared<Table>(*shared);
  db->tables.RegisterOrReplace(name, writable);
  return writable;
}

}  // namespace laws
