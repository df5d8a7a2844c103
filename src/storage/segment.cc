#include "storage/segment.h"

#include <algorithm>

#include "common/logging.h"

namespace wattdb::storage {

Segment::Segment(SegmentId id, NodeId storage_node, DiskId disk,
                 index::IndexKind index_kind)
    : id_(id),
      storage_node_(storage_node),
      disk_(disk),
      pk_index_(index::MakeRecordIndex(index_kind)) {
  WATTDB_CHECK_MSG(pk_index_ != nullptr,
                   "unknown IndexKind " << static_cast<int>(index_kind));
}

size_t Segment::FirstWithFree(size_t from, size_t need) {
  const size_t n = free_.size();
  size_t i = from;
  while (i < n) {
    const size_t block = i / kMapBlock;
    const size_t block_end = std::min(n, (block + 1) * kMapBlock);
    ++steps_;
    if (block_max_[block] >= need) {
      for (; i < block_end; ++i) {
        ++steps_;
        if (free_[i] >= need) return i;
      }
    }
    i = block_end;
  }
  return n;
}

Page* Segment::PageWithRoom(size_t record_size, uint16_t* out_idx) {
  const size_t need = record_size + kSlotSize;
  // Every page the cursor passes has under kCursorFloor bytes free, so a
  // search for at least that much can start where the cursor stops.
  const size_t roomy = FirstWithFree(insert_cursor_, kCursorFloor);
  const size_t fit =
      FirstWithFree(need >= kCursorFloor ? roomy : insert_cursor_, need);
  insert_cursor_ = std::min(roomy, fit);
  if (fit < pages_.size()) {
    *out_idx = static_cast<uint16_t>(fit);
    return pages_[fit].get();
  }
  if (pages_.size() >= kPagesPerSegment) return nullptr;
  pages_.push_back(std::make_unique<Page>());
  free_.push_back(0);
  if (free_.size() > block_max_.size() * kMapBlock) block_max_.push_back(0);
  NoteFreeSpace(pages_.size() - 1);
  *out_idx = static_cast<uint16_t>(pages_.size() - 1);
  return pages_.back().get();
}

void Segment::NoteFreeSpace(size_t idx) {
  const uint16_t before = free_[idx];
  const uint16_t now = static_cast<uint16_t>(pages_[idx]->FreeSpace());
  free_[idx] = now;
  const size_t block = idx / kMapBlock;
  uint16_t& block_max = block_max_[block];
  if (now >= block_max) {
    block_max = now;
  } else if (before == block_max) {
    const size_t lo = block * kMapBlock;
    const size_t hi = std::min(free_.size(), lo + kMapBlock);
    block_max = *std::max_element(free_.begin() + lo, free_.begin() + hi);
  }
}

StatusOr<RecordPos> Segment::Insert(Key key,
                                    const std::vector<uint8_t>& payload) {
  if (pk_index_->Contains(key)) {
    return Status::AlreadyExists("duplicate key in segment");
  }
  const std::vector<uint8_t> body = EncodeRecord(key, payload);
  uint16_t page_idx = 0;
  Page* page = PageWithRoom(body.size(), &page_idx);
  if (page == nullptr) {
    return Status::ResourceExhausted("segment full");
  }
  auto slot = page->Insert(body.data(), body.size());
  if (!slot.ok()) return slot.status();
  NoteFreeSpace(page_idx);
  const RecordPos pos{page_idx, slot.value()};
  pk_index_->Insert(key, pos);
  ++writes_;
  return pos;
}

StatusOr<RecordPos> Segment::Locate(Key key) const {
  const RecordPos* pos = pk_index_->Find(key);
  if (pos == nullptr) return Status::NotFound("key not in segment");
  return *pos;
}

StatusOr<Record> Segment::Read(Key key) const {
  auto pos = Locate(key);
  if (!pos.ok()) return pos.status();
  return ReadAt(pos.value());
}

StatusOr<Record> Segment::ReadAt(RecordPos pos) const {
  if (pos.page >= pages_.size()) return Status::NotFound("bad page");
  auto body = pages_[pos.page]->Read(pos.slot);
  if (!body.ok()) return body.status();
  ++reads_;
  return DecodeRecord(body.value().first, body.value().second);
}

Status Segment::Update(Key key, const std::vector<uint8_t>& payload) {
  const RecordPos* posp = pk_index_->Find(key);
  if (posp == nullptr) return Status::NotFound("key not in segment");
  const RecordPos pos = *posp;
  const std::vector<uint8_t> body = EncodeRecord(key, payload);
  Status s = pages_[pos.page]->Update(pos.slot, body.data(), body.size());
  if (s.ok()) {
    NoteFreeSpace(pos.page);
    ++writes_;
    return s;
  }
  if (!s.IsResourceExhausted()) return s;
  // The record grew past its page: relocate within the segment. Its own
  // page cannot take it even once the old body is gone, so a full segment
  // with no other page to take it fails before anything changes.
  if (pages_.size() >= kPagesPerSegment &&
      FirstWithFree(insert_cursor_, body.size() + kSlotSize) ==
          pages_.size()) {
    return Status::ResourceExhausted("segment full");
  }
  WATTDB_RETURN_IF_ERROR(pages_[pos.page]->Delete(pos.slot));
  NoteFreeSpace(pos.page);
  uint16_t page_idx = 0;
  Page* page = PageWithRoom(body.size(), &page_idx);
  WATTDB_CHECK(page != nullptr);
  auto slot = page->Insert(body.data(), body.size());
  if (!slot.ok()) return slot.status();
  NoteFreeSpace(page_idx);
  pk_index_->Insert(key, RecordPos{page_idx, slot.value()});
  ++writes_;
  return Status::OK();
}

Status Segment::Delete(Key key) {
  const RecordPos* posp = pk_index_->Find(key);
  if (posp == nullptr) return Status::NotFound("key not in segment");
  WATTDB_RETURN_IF_ERROR(pages_[posp->page]->Delete(posp->slot));
  NoteFreeSpace(posp->page);
  pk_index_->Erase(key);
  ++writes_;
  return Status::OK();
}

size_t Segment::ScanRange(Key lo, Key hi,
                          const std::function<bool(const Record&)>& fn) const {
  return pk_index_->Scan(lo, hi, [&](Key key, const RecordPos& pos) {
    auto rec = ReadAt(pos);
    WATTDB_CHECK_MSG(rec.ok(), "index points at missing record, key=" << key);
    return fn(rec.value());
  });
}

size_t Segment::ScanAll(const std::function<bool(const Record&)>& fn) const {
  return ScanRange(kMinKey, kMaxKey, fn);
}

size_t Segment::LiveBytes() const {
  size_t bytes = 0;
  for (const auto& p : pages_) bytes += p->LiveBytes();
  return bytes;
}

Key Segment::MinKey() const {
  Key k = 0;
  if (!pk_index_->LowerBound(kMinKey, &k)) return 0;
  return k;
}

Key Segment::MaxKey() const {
  Key last = 0;
  pk_index_->Scan(kMinKey, kMaxKey, [&](Key k, const RecordPos&) {
    last = k;
    return true;
  });
  return last;
}

bool Segment::CheckInvariants() const {
  if (!pk_index_->CheckInvariants()) return false;
  if (free_.size() != pages_.size() ||
      block_max_.size() != (pages_.size() + kMapBlock - 1) / kMapBlock) {
    return false;
  }
  std::vector<uint16_t> block_max(block_max_.size(), 0);
  size_t live = 0;
  for (size_t i = 0; i < pages_.size(); ++i) {
    const Page& p = *pages_[i];
    if (!p.CheckInvariants() || free_[i] != p.FreeSpace()) return false;
    block_max[i / kMapBlock] = std::max(block_max[i / kMapBlock], free_[i]);
    live += p.record_count();
  }
  if (block_max != block_max_) return false;
  if (live != pk_index_->size()) return false;
  bool ok = true;
  pk_index_->Scan(kMinKey, kMaxKey, [&](Key key, const RecordPos& pos) {
    auto rec = ReadAt(pos);
    if (!rec.ok() || rec.value().key != key) {
      ok = false;
      return false;
    }
    return true;
  });
  return ok;
}

}  // namespace wattdb::storage
