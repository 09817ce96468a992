#include "trace.h"

#include <cstdio>
#include <map>
#include <unordered_map>

namespace perfbench {

namespace {

struct ThreadState {
  std::vector<Span> *buffer = nullptr;
  uint32_t index = 0;
  std::vector<uint64_t> open;  // ids of this thread's open spans
};

thread_local ThreadState tls;

/// Times one file handle's Read/Write/Sync calls.
class TimingFileHandle : public ssagg::FileHandle {
 public:
  explicit TimingFileHandle(std::unique_ptr<ssagg::FileHandle> inner)
      : FileHandle(inner->path()), inner_(std::move(inner)) {}

  ssagg::Status Read(void *buffer, ssagg::idx_t bytes,
                     ssagg::idx_t offset) override {
    ScopedSpan span("fs.read", bytes);
    return inner_->Read(buffer, bytes, offset);
  }
  ssagg::Status Write(const void *buffer, ssagg::idx_t bytes,
                      ssagg::idx_t offset) override {
    ScopedSpan span("fs.write", bytes);
    return inner_->Write(buffer, bytes, offset);
  }
  ssagg::Status Sync() override {
    ScopedSpan span("fs.sync");
    return inner_->Sync();
  }
  ssagg::Status Truncate(ssagg::idx_t size) override {
    return inner_->Truncate(size);
  }
  ssagg::Result<ssagg::idx_t> FileSize() override {
    return inner_->FileSize();
  }

 private:
  std::unique_ptr<ssagg::FileHandle> inner_;
};

}  // namespace

SpanRecorder &SpanRecorder::Global() {
  static SpanRecorder *recorder = new SpanRecorder();
  return *recorder;
}

std::vector<Span> &SpanRecorder::ThreadBuffer(uint32_t *thread_index) {
  if (tls.buffer == nullptr) {
    // The executor spawns fresh workers for every pipeline, so buffers are
    // owned here rather than by the (short-lived) threads.
    ssagg::ScopedLock guard(lock_);
    buffers_.emplace_back();
    tls.buffer = &buffers_.back();
    tls.index = static_cast<uint32_t>(buffers_.size() - 1);
  }
  *thread_index = tls.index;
  return *tls.buffer;
}

std::vector<Span> SpanRecorder::Collect() const {
  ssagg::ScopedLock guard(lock_);
  std::vector<Span> all;
  for (const auto &buffer : buffers_) {
    all.insert(all.end(), buffer.begin(), buffer.end());
  }
  return all;
}

ScopedSpan::ScopedSpan(const char *name, uint64_t bytes) {
  SpanRecorder &recorder = SpanRecorder::Global();
  if (!recorder.enabled()) {
    return;
  }
  active_ = true;
  span_.name = name;
  span_.id = recorder.NextId();
  span_.parent = tls.open.empty() ? recorder.root() : tls.open.back();
  span_.query = recorder.query();
  span_.bytes = bytes;
  tls.open.push_back(span_.id);
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) {
    return;
  }
  span_.end_ns = NowNs();
  tls.open.pop_back();
  auto &buffer = SpanRecorder::Global().ThreadBuffer(&span_.thread);
  buffer.push_back(span_);
}

ssagg::Result<std::unique_ptr<ssagg::FileHandle>> TimingFileSystem::Open(
    const std::string &path, ssagg::FileOpenFlags flags) {
  SSAGG_ASSIGN_OR_RETURN(auto handle, inner_.Open(path, flags));
  return std::unique_ptr<ssagg::FileHandle>(
      new TimingFileHandle(std::move(handle)));
}

std::vector<std::pair<std::string, LayerTime>> SelfTimes(
    const std::vector<Span> &spans) {
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const Span &span : spans) {
    if (span.parent != 0) {
      child_ns[span.parent] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, LayerTime> by_name;
  for (const Span &span : spans) {
    LayerTime &layer = by_name[span.name];
    int64_t self = span.end_ns - span.start_ns;
    auto it = child_ns.find(span.id);
    if (it != child_ns.end()) {
      self -= it->second;
    }
    layer.calls++;
    layer.self_seconds += static_cast<double>(self) * 1e-9;
    layer.bytes += span.bytes;
  }
  return {by_name.begin(), by_name.end()};
}

ssagg::Status WriteSpans(const std::vector<Span> &spans,
                         const std::string &path) {
  std::FILE *file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return ssagg::Status::IOError("cannot write " + path);
  }
  std::fprintf(file, "id,parent,query,thread,name,start_ns,end_ns,bytes\n");
  for (const Span &s : spans) {
    std::fprintf(file, "%llu,%llu,%llu,%u,%s,%lld,%lld,%llu\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.query), s.thread, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.bytes));
  }
  if (std::fclose(file) != 0) {
    return ssagg::Status::IOError("cannot write " + path);
  }
  return ssagg::Status::OK();
}

}  // namespace perfbench
