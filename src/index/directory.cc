#include "index/directory.h"

namespace wavekit {

BucketInfo* Directory::Find(const Value& value) {
  auto it = map_.find(value);
  return it == map_.end() ? nullptr : &it->second;
}

const BucketInfo* Directory::Find(const Value& value) const {
  auto it = map_.find(value);
  return it == map_.end() ? nullptr : &it->second;
}

Status Directory::Insert(const Value& value, const BucketInfo& info) {
  auto [it, inserted] = map_.emplace(value, info);
  (void)it;
  if (!inserted) {
    return Status::AlreadyExists("directory already maps value '" + value + "'");
  }
  return Status::OK();
}

Status Directory::Remove(const Value& value) {
  if (map_.erase(value) == 0) {
    return Status::NotFound("directory has no value '" + value + "'");
  }
  return Status::OK();
}

void Directory::ForEach(
    const std::function<void(const Value&, const BucketInfo&)>& fn) const {
  for (const auto& [value, info] : map_) fn(value, info);
}

}  // namespace wavekit
