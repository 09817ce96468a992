#include "buffer/temporary_file_manager.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <numeric>

#include "buffer/memory_grant.h"
#include "common/constants.h"
#include "compression/codec.h"
#include "observe/flight_recorder.h"
#include "testing/fault_injector.h"

namespace ssagg {

namespace {
/// Nanoseconds spent in `fn` (a file-system call or a submit/wait cycle).
template <typename Fn>
uint64_t TimedNs(const Fn &fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}
}  // namespace

TemporaryFileManager::TemporaryFileManager(std::string directory,
                                           FileSystem &fs,
                                           AsyncIoBackend *io_backend,
                                           bool spill_compression)
    : directory_(std::move(directory)),
      fs_(fs),
      token_(ProcessUniqueToken()),
      spill_compression_(spill_compression) {
  if (io_backend == nullptr) {
    owned_backend_ = CreateIoBackend(IoBackendKind::kSync);
    io_backend = owned_backend_.get();
  }
  io_backend_ = io_backend;
  MetricsRegistry &registry = MetricsRegistry::Global();
  key_spill_writes_ = registry.KeyId("io.spill_writes");
  key_spill_reads_ = registry.KeyId("io.spill_reads");
  key_spill_bytes_written_ = registry.KeyId("io.spill_bytes_written");
  key_spill_bytes_read_ = registry.KeyId("io.spill_bytes_read");
  key_spill_raw_bytes_ = registry.KeyId("io.spill_raw_bytes");
  key_spill_coalesced_writes_ = registry.KeyId("io.spill_coalesced_writes");
  key_spill_coalesced_pages_ = registry.KeyId("io.spill_coalesced_pages");
  key_spill_write_ns_ = registry.KeyId("io.spill_write_ns");
  key_spill_read_ns_ = registry.KeyId("io.spill_read_ns");
  hist_spill_read_latency_ = registry.HistogramId("io.spill_read_latency_ns");
}

TemporaryFileManager::~TemporaryFileManager() {
  // No submissions against our files may be in flight once the handles die.
  io_backend_->Drain();
  ScopedLock guard(lock_);
  if (fixed_file_) {
    std::string path = fixed_file_->path();
    fixed_file_.reset();
    (void)fs_.RemoveFile(path);
  }
  for (auto &entry : variable_blocks_) {
    (void)fs_.RemoveFile(VariableFilePath(entry.first));
  }
}

Status TemporaryFileManager::EnsureFixedFileLocked() {
  if (fixed_file_) {
    return Status::OK();
  }
  SSAGG_RETURN_NOT_OK(fs_.CreateDirectories(directory_));
  FileOpenFlags flags;
  flags.read = true;
  flags.write = true;
  flags.create = true;
  flags.truncate = true;
  SSAGG_ASSIGN_OR_RETURN(fixed_file_, fs_.Open(FixedFilePath(), flags));
  return Status::OK();
}

std::string TemporaryFileManager::FixedFilePath() const {
  return directory_ + "/ssagg_temp_" + token_ + ".tmp";
}

Status TemporaryFileManager::HitCoalesceSite() {
  if (FaultInjector *injector = io_backend_->fault_injector()) {
    return injector->Hit(FaultSite::kAsyncCoalesce);
  }
  return Status::OK();
}

Result<idx_t> TemporaryFileManager::WriteFixedBlock(const FileBuffer &buffer) {
  FixedSpillRequest request;
  request.buffer = &buffer;
  WriteFixedBlocks(&request, 1);
  SSAGG_RETURN_NOT_OK(request.status);
  return request.slot;
}

void TemporaryFileManager::WriteFixedBlocks(FixedSpillRequest *requests,
                                            idx_t count) {
  if (count == 0) {
    return;
  }
  // Span name is part of the observability contract ("spill.write" appears
  // for every spilling query); the arg carries the batch depth.
  TraceSpan span("spill.write", "io", count);
  const bool compress = spill_compression();
  FileHandle *file;
  {
    ScopedLock guard(lock_);
    Status ensure = EnsureFixedFileLocked();
    if (!ensure.ok()) {
      for (idx_t i = 0; i < count; i++) {
        requests[i].status = ensure;
      }
      return;
    }
    file = fixed_file_.get();
    for (idx_t i = 0; i < count; i++) {
      SSAGG_DASSERT(requests[i].buffer->size() == kPageSize);
      // Per-query spill quota gate: a refused entry takes no slot and does
      // no I/O. Quota counts logical (pre-compression) bytes so the codec
      // choice cannot change a tenant's admission behaviour.
      if (requests[i].grant != nullptr &&
          !requests[i].grant->TryChargeSpill(kPageSize)) {
        requests[i].quota_refused = true;
        requests[i].status = Status::OutOfMemory(
            "per-query spill quota exceeded (" +
            std::to_string(requests[i].grant->spill_quota()) + " bytes)");
        continue;
      }
      if (!free_slots_.empty()) {
        requests[i].slot = free_slots_.back();
        free_slots_.pop_back();
        slot_reuses_++;
      } else {
        requests[i].slot = slot_count_++;
      }
      used_slots_++;
    }
    UpdatePeakLocked();
  }
  // Entries that passed the gate (quota-refused ones keep slot ==
  // kInvalidIndex and are skipped below).
  std::vector<idx_t> eligible;
  eligible.reserve(count);
  for (idx_t i = 0; i < count; i++) {
    if (requests[i].slot != kInvalidIndex) {
      eligible.push_back(i);
    }
  }

  /// One physical submission covering one or more requests.
  struct Submission {
    std::vector<idx_t> members;   // indices into requests
    std::vector<data_t> staging;  // owned payload (frame or merged pages)
    const void *data = nullptr;
    idx_t bytes = 0;
    idx_t offset = 0;
    IoCompletionPtr completion;
    Status status;
    bool coalesced = false;
  };
  std::vector<Submission> submissions;
  submissions.reserve(count);

  if (compress) {
    // Each page becomes its own frame (or stays raw if the frame would not
    // fit the slot); frames are variable-length, so adjacent slots are not
    // merged — a coalesced write would have to pad the gaps back in and
    // forfeit the byte savings. The codec pass itself runs in the request's
    // prepare hook, i.e. on the backend's executor: async backends overlap
    // compression across their workers while the evictor keeps submitting.
    for (idx_t i : eligible) {
      Submission sub;
      sub.members.push_back(i);
      sub.offset = requests[i].slot * kPageSize;
      sub.data = requests[i].buffer->data();
      sub.bytes = kPageSize;
      submissions.push_back(std::move(sub));
    }
  } else {
    // Merge runs of adjacent slots into single larger writes. Fresh slots
    // are consecutive by construction, so page floods coalesce well; free-
    // list recycling fragments the slot space and naturally degrades to
    // per-page writes. Async backends get their speedup from many small
    // in-flight submissions, and a long merged run collapses the whole batch
    // into one transfer the evictor then waits on — so runs are capped for
    // them (pairs still amortize a syscall), while the sync backend keeps
    // unlimited runs: one thread, fewer syscalls wins.
    const idx_t max_run =
        io_backend_->kind() == IoBackendKind::kSync ? count : idx_t(4);
    std::vector<idx_t> order = eligible;
    std::sort(order.begin(), order.end(), [&](idx_t a, idx_t b) {
      return requests[a].slot < requests[b].slot;
    });
    idx_t i = 0;
    while (i < order.size()) {
      idx_t run = 1;
      while (run < max_run && i + run < order.size() &&
             requests[order[i + run]].slot ==
                 requests[order[i + run - 1]].slot + 1) {
        run++;
      }
      Submission sub;
      sub.offset = requests[order[i]].slot * kPageSize;
      for (idx_t r = 0; r < run; r++) {
        sub.members.push_back(order[i + r]);
      }
      if (run == 1) {
        sub.data = requests[order[i]].buffer->data();
        sub.bytes = kPageSize;
      } else {
        sub.coalesced = true;
        sub.status = HitCoalesceSite();
        if (sub.status.ok()) {
          sub.staging.resize(run * kPageSize);
          for (idx_t r = 0; r < run; r++) {
            std::memcpy(sub.staging.data() + r * kPageSize,
                        requests[order[i + r]].buffer->data(), kPageSize);
          }
          sub.data = sub.staging.data();
          sub.bytes = sub.staging.size();
        }
      }
      submissions.push_back(std::move(sub));
      i += run;
    }
  }

  uint64_t ns = TimedNs([&]() {
    for (auto &sub : submissions) {
      if (!sub.status.ok()) {
        continue;  // failed before submission (injected coalesce fault)
      }
      IoRequest request;
      request.kind = IoRequest::Kind::kWrite;
      request.file = file;
      request.buffer = const_cast<void *>(sub.data);
      request.bytes = sub.bytes;
      request.offset = sub.offset;
      if (compress) {
        request.cpu_bound = true;
        request.prepare = [&sub](IoRequest &req) {
          CompressSpillFrame(static_cast<const_data_ptr_t>(req.buffer),
                             kPageSize, sub.staging);
          if (sub.staging.size() < kPageSize) {
            req.buffer = sub.staging.data();
            req.bytes = sub.staging.size();
            sub.bytes = sub.staging.size();
          } else {
            sub.staging.clear();  // frame would not fit the slot: stay raw
          }
          return Status::OK();
        };
      }
      sub.completion = io_backend_->Submit(std::move(request));
    }
    for (auto &sub : submissions) {
      if (sub.completion) {
        sub.status = sub.completion->Wait();
      }
    }
  });

  if (compress) {
    // Frame sizes become visible only now, after every Wait() — safe because
    // the evictor still holds the block locks, so no reader can ask for
    // these slots until WriteFixedBlocks returns.
    ScopedLock guard(lock_);
    for (auto &sub : submissions) {
      if (sub.status.ok() && sub.bytes < kPageSize) {
        slot_frame_sizes_[requests[sub.members[0]].slot] = sub.bytes;
      }
    }
  }

  idx_t ok_bytes = 0;
  idx_t ok_raw_bytes = 0;
  idx_t ok_pages = 0;
  for (auto &sub : submissions) {
    if (sub.status.ok()) {
      ok_bytes += sub.bytes;
      ok_raw_bytes += sub.members.size() * kPageSize;
      ok_pages += sub.members.size();
      if (sub.coalesced) {
        coalesced_writes_.fetch_add(1, std::memory_order_relaxed);
        coalesced_pages_.fetch_add(sub.members.size(),
                                   std::memory_order_relaxed);
        MetricsRegistry &registry = MetricsRegistry::Global();
        registry.Add(key_spill_coalesced_writes_, 1);
        registry.Add(key_spill_coalesced_pages_, sub.members.size());
      }
      for (idx_t member : sub.members) {
        requests[member].status = Status::OK();
      }
    } else {
      // Roll the slots back: a failed spill must not leak temp-file space or
      // quota charges (the caller keeps the in-memory pages and propagates
      // the error).
      for (idx_t member : sub.members) {
        requests[member].status = sub.status;
        FreeFixedSlot(requests[member].slot);
        requests[member].slot = kInvalidIndex;
        if (requests[member].grant != nullptr) {
          requests[member].grant->DischargeSpill(kPageSize);
        }
      }
    }
  }
  if (ok_pages > 0) {
    // "Writes" count spilled pages (the logical unit the rest of the engine
    // reasons about); coalescing shows up in the io.spill_coalesced_*
    // counters instead. RecordWrite contributes 1.
    RecordWrite(ok_bytes, ok_raw_bytes, ns);
    MetricsRegistry::Global().Add(key_spill_writes_, ok_pages - 1);
    ScopedLock guard(lock_);
    write_count_ += ok_pages;
  }
}

Status TemporaryFileManager::ReadFixedBlock(idx_t slot, FileBuffer &buffer) {
  SSAGG_DASSERT(buffer.size() == kPageSize);
  TraceSpan span("spill.read", "io");
  FileHandle *file;
  idx_t frame_size = 0;
  {
    // The handle pointer is guarded state; the positioned read itself runs
    // unlocked.
    ScopedLock guard(lock_);
    SSAGG_ASSERT(fixed_file_ != nullptr);
    file = fixed_file_.get();
    auto it = slot_frame_sizes_.find(slot);
    if (it != slot_frame_sizes_.end()) {
      frame_size = it->second;
    }
  }
  Status status;
  idx_t bytes = frame_size != 0 ? frame_size : kPageSize;
  uint64_t ns;
  if (frame_size != 0) {
    // The decompress belongs inside the timed window: on this demand path
    // the query thread pays for it inline, exactly like the read itself.
    std::vector<data_t> scratch(frame_size);
    ns = TimedNs([&]() {
      status = file->Read(scratch.data(), frame_size, slot * kPageSize);
      if (status.ok()) {
        status = DecompressSpillFrame(scratch.data(), frame_size,
                                      buffer.data(), kPageSize);
      }
    });
  } else {
    ns = TimedNs([&]() {
      status = file->Read(buffer.data(), kPageSize, slot * kPageSize);
    });
  }
  SSAGG_RETURN_NOT_OK(status);
  FreeFixedSlot(slot);
  {
    ScopedLock guard(lock_);
    read_count_++;
  }
  RecordRead(bytes, ns);
  // Demand read: did not go through the async backend, so record its
  // latency here (the query thread was blocked for all of it).
  MetricsRegistry::Global().Record(hist_spill_read_latency_, ns);
  return Status::OK();
}

void TemporaryFileManager::SubmitReadFixedBlock(
    idx_t slot, FileBuffer &buffer, std::function<void(const Status &)> done) {
  SSAGG_DASSERT(buffer.size() == kPageSize);
  FileHandle *file;
  idx_t frame_size = 0;
  {
    ScopedLock guard(lock_);
    SSAGG_ASSERT(fixed_file_ != nullptr);
    file = fixed_file_.get();
    auto it = slot_frame_sizes_.find(slot);
    if (it != slot_frame_sizes_.end()) {
      frame_size = it->second;
    }
  }
  // Completion runs on the backend's thread: decompress if needed, release
  // the slot on success (mirroring the synchronous read), then hand off.
  auto scratch = frame_size != 0
                     ? std::make_shared<std::vector<data_t>>(frame_size)
                     : nullptr;
  idx_t bytes = frame_size != 0 ? frame_size : kPageSize;
  FileBuffer *dest = &buffer;
  auto finalize = [this, slot, bytes, scratch, dest, frame_size,
                   done = std::move(done)](const Status &io_status) {
    // Span name is part of the observability contract ("spill.read" appears
    // for every spilling query); emitted on the completion thread, where it
    // nests laminarly.
    TraceSpan span("spill.read", "io");
    Status status = io_status;
    if (status.ok() && frame_size != 0) {
      status = DecompressSpillFrame(scratch->data(), frame_size, dest->data(),
                                    kPageSize);
    }
    if (status.ok()) {
      FreeFixedSlot(slot);
      {
        ScopedLock guard(lock_);
        read_count_++;
      }
      // ns = 0: this is a prefetch — no query thread is blocked on it, so
      // its latency must not inflate the "time blocked on spill reads"
      // number. Pin()'s wait for in-flight loads is what counts, and the
      // BufferManager times that directly.
      RecordRead(bytes, 0);
    }
    done(status);
  };
  IoRequest request;
  request.kind = IoRequest::Kind::kRead;
  request.file = file;
  request.buffer = frame_size != 0 ? static_cast<void *>(scratch->data())
                                   : static_cast<void *>(buffer.data());
  request.bytes = bytes;
  request.offset = slot * kPageSize;
  // A framed slot decompresses in on_complete; keep that off a shared
  // completion reaper.
  request.cpu_bound = frame_size != 0;
  request.on_complete = std::move(finalize);
  io_backend_->Submit(std::move(request));
}

void TemporaryFileManager::RecordWrite(idx_t bytes, idx_t raw_bytes,
                                       uint64_t ns) {
  bytes_written_.fetch_add(bytes, std::memory_order_relaxed);
  raw_bytes_written_.fetch_add(raw_bytes, std::memory_order_relaxed);
  write_ns_.fetch_add(ns, std::memory_order_relaxed);
  MetricsRegistry &registry = MetricsRegistry::Global();
  registry.Add(key_spill_writes_, 1);
  registry.Add(key_spill_bytes_written_, bytes);
  registry.Add(key_spill_raw_bytes_, raw_bytes);
  registry.Add(key_spill_write_ns_, ns);
}

void TemporaryFileManager::RecordRead(idx_t bytes, uint64_t ns) {
  bytes_read_.fetch_add(bytes, std::memory_order_relaxed);
  read_ns_.fetch_add(ns, std::memory_order_relaxed);
  MetricsRegistry &registry = MetricsRegistry::Global();
  registry.Add(key_spill_reads_, 1);
  registry.Add(key_spill_bytes_read_, bytes);
  registry.Add(key_spill_read_ns_, ns);
}

void TemporaryFileManager::FreeFixedSlot(idx_t slot) {
  ScopedLock guard(lock_);
  free_slots_.push_back(slot);
  slot_frame_sizes_.erase(slot);
  SSAGG_DASSERT(used_slots_ > 0);
  used_slots_--;
}

std::string TemporaryFileManager::VariableFilePath(block_id_t id) const {
  return directory_ + "/ssagg_temp_var_" + token_ + "_" + std::to_string(id) +
         ".tmp";
}

Status TemporaryFileManager::WriteVariableBlock(block_id_t id,
                                                const FileBuffer &buffer) {
  TraceSpan span("spill.write", "io", buffer.size());
  const bool compress = spill_compression();
  std::vector<data_t> frame;
  const void *data = buffer.data();
  idx_t bytes = buffer.size();
  bool stored_compressed = false;
  if (compress) {
    CompressSpillFrame(buffer.data(), buffer.size(), frame);
    if (frame.size() < buffer.size()) {
      data = frame.data();
      bytes = frame.size();
      stored_compressed = true;
    }
  }
  {
    ScopedLock guard(lock_);
    SSAGG_RETURN_NOT_OK(fs_.CreateDirectories(directory_));
    variable_blocks_[id] =
        VariableBlockInfo{buffer.size(), bytes, stored_compressed};
    write_count_++;
    variable_files_created_++;
    UpdatePeakLocked();
  }
  FileOpenFlags flags;
  flags.read = false;
  flags.write = true;
  flags.create = true;
  flags.truncate = true;
  Status status;
  uint64_t ns = TimedNs([&]() {
    auto file = fs_.Open(VariableFilePath(id), flags);
    if (!file.ok()) {
      status = file.status();
      return;
    }
    IoRequest request;
    request.kind = IoRequest::Kind::kWrite;
    request.file = file.value().get();
    request.buffer = const_cast<void *>(data);
    request.bytes = bytes;
    request.offset = 0;
    // The handle must outlive the submission; Wait() before `file` dies.
    status = io_backend_->Submit(std::move(request))->Wait();
  });
  if (!status.ok()) {
    // Roll back the registration and drop any partially written file so the
    // failed spill leaves no temp-storage footprint.
    FreeVariableBlock(id);
    return status;
  }
  RecordWrite(bytes, buffer.size(), ns);
  return Status::OK();
}

Status TemporaryFileManager::ReadVariableBlock(block_id_t id,
                                               FileBuffer &buffer) {
  TraceSpan span("spill.read", "io", buffer.size());
  VariableBlockInfo info;
  {
    ScopedLock guard(lock_);
    auto it = variable_blocks_.find(id);
    if (it == variable_blocks_.end()) {
      return Status::Internal("read of unknown variable temp block " +
                              std::to_string(id));
    }
    info = it->second;
  }
  if (info.raw_size != buffer.size()) {
    return Status::Internal("variable temp block size mismatch");
  }
  FileOpenFlags flags;
  Status status;
  uint64_t ns = TimedNs([&]() {
    auto file = fs_.Open(VariableFilePath(id), flags);
    if (!file.ok()) {
      status = file.status();
      return;
    }
    if (info.compressed) {
      std::vector<data_t> scratch(info.stored_size);
      status = file.value()->Read(scratch.data(), info.stored_size, 0);
      if (status.ok()) {
        status = DecompressSpillFrame(scratch.data(), info.stored_size,
                                      buffer.data(), buffer.size());
      }
    } else {
      status = file.value()->Read(buffer.data(), buffer.size(), 0);
    }
  });
  SSAGG_RETURN_NOT_OK(status);
  FreeVariableBlock(id);
  {
    ScopedLock guard(lock_);
    read_count_++;
  }
  RecordRead(info.stored_size, ns);
  // Direct read (no backend Submit): record the blocked latency here.
  MetricsRegistry::Global().Record(hist_spill_read_latency_, ns);
  return Status::OK();
}

void TemporaryFileManager::FreeVariableBlock(block_id_t id) {
  ScopedLock guard(lock_);
  auto it = variable_blocks_.find(id);
  if (it == variable_blocks_.end()) {
    return;
  }
  variable_blocks_.erase(it);
  (void)fs_.RemoveFile(VariableFilePath(id));
}

idx_t TemporaryFileManager::UsedSlots() const {
  ScopedLock guard(lock_);
  return used_slots_;
}

idx_t TemporaryFileManager::VariableBlockCount() const {
  ScopedLock guard(lock_);
  return variable_blocks_.size();
}

idx_t TemporaryFileManager::WriteCount() const {
  ScopedLock guard(lock_);
  return write_count_;
}

idx_t TemporaryFileManager::ReadCount() const {
  ScopedLock guard(lock_);
  return read_count_;
}

idx_t TemporaryFileManager::SlotReuses() const {
  ScopedLock guard(lock_);
  return slot_reuses_;
}

idx_t TemporaryFileManager::VariableFilesCreated() const {
  ScopedLock guard(lock_);
  return variable_files_created_;
}

idx_t TemporaryFileManager::CurrentSize() const {
  ScopedLock guard(lock_);
  idx_t variable = 0;
  for (auto &entry : variable_blocks_) {
    variable += entry.second.stored_size;
  }
  return used_slots_ * kPageSize + variable;
}

idx_t TemporaryFileManager::PeakSize() const {
  ScopedLock guard(lock_);
  return peak_size_;
}

void TemporaryFileManager::UpdatePeakLocked() {
  idx_t variable = 0;
  for (auto &entry : variable_blocks_) {
    variable += entry.second.stored_size;
  }
  peak_size_ = std::max(peak_size_, used_slots_ * kPageSize + variable);
}

}  // namespace ssagg