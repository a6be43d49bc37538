#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "util/json.hpp"
#include "util/status.hpp"

namespace perfbench {

std::atomic<Tracer*> Tracer::active_{nullptr};
std::atomic<std::uint64_t> Tracer::generations_{0};

namespace {

struct LocalSlot {
  std::uint64_t generation = 0;  // of the tracer `buffer` belongs to
  void* buffer = nullptr;
};
thread_local LocalSlot t_slot;
thread_local std::uint64_t t_current = 0;

}  // namespace

std::uint64_t& Tracer::current() { return t_current; }

Tracer::Buffer& Tracer::local() {
  if (t_slot.generation != generation_) {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->thread = static_cast<int>(buffers_.size());
    buffers_.back()->spans.reserve(4096);
    t_slot.generation = generation_;
    t_slot.buffer = buffers_.back().get();
  }
  return *static_cast<Buffer*>(t_slot.buffer);
}

void Tracer::record(const SpanRecord& rec) {
  Buffer& b = local();
  b.spans.push_back(rec);
  b.spans.back().thread = b.thread;
}

std::vector<SpanRecord> Tracer::merged() const {
  std::vector<SpanRecord> all;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& b : buffers_) {
      all.insert(all.end(), b->spans.begin(), b->spans.end());
    }
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.id < b.id;
            });
  return all;
}

std::map<std::string, SpanTotals> Tracer::totals() const {
  const std::vector<SpanRecord> spans = merged();
  // Children grouped by parent; their intervals are already in start
  // order because `spans` is.
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t,
                                                          std::int64_t>>>
      children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, SpanTotals> out;
  for (const SpanRecord& s : spans) {
    std::int64_t covered = 0;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      std::int64_t reach = s.start_ns;  // end of the union so far
      for (const auto& [lo_raw, hi_raw] : it->second) {
        const std::int64_t lo = std::max(lo_raw, reach);
        const std::int64_t hi = std::min(hi_raw, s.end_ns);
        if (hi > lo) {
          covered += hi - lo;
          reach = hi;
        }
      }
    }
    SpanTotals& t = out[s.name];
    ++t.count;
    const std::int64_t dur = s.end_ns - s.start_ns;
    t.total_s += static_cast<double>(dur) * 1e-9;
    t.self_s += static_cast<double>(dur - covered) * 1e-9;
  }
  return out;
}

std::size_t Tracer::write_chrome_trace(const std::string& path) const {
  const std::vector<SpanRecord> spans = merged();
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buf[96];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (i > 0) os << ',';
    os << "{\"name\":\"" << s.name << "\",\"cat\":\"";
    const std::string name(s.name);
    os << name.substr(0, name.find('.')) << "\",\"ph\":\"X\",\"pid\":1,";
    std::snprintf(buf, sizeof(buf), "\"ts\":%.3f,\"dur\":%.3f,",
                  static_cast<double>(s.start_ns - origin) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    os << buf << "\"tid\":" << s.thread << ",\"args\":{\"id\":" << s.id
       << ",\"parent\":" << s.parent << ",\"job\":" << s.job << "}}";
  }
  os << "]}\n";
  {
    std::ofstream out(path, std::ios::trunc);
    out << os.str();
    ATLANTIS_CHECK(out.good(), "cannot write trace file " + path);
  }
  std::ifstream in(path);
  const std::string text{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  const atlantis::util::JsonValue doc = atlantis::util::json_parse(text);
  const std::size_t events = doc.at("traceEvents").as_array().size();
  ATLANTIS_CHECK(events == spans.size(),
                 "trace file lost events on the way to disk");
  return events;
}

Span::Span(const char* name, std::uint64_t job, std::uint64_t parent)
    : tracer_(Tracer::active()) {
  if (tracer_ == nullptr) return;
  rec_.name = name;
  rec_.job = job;
  rec_.id = tracer_->next_id();
  saved_current_ = Tracer::current();
  rec_.parent = parent == kInherit ? saved_current_ : parent;
  Tracer::current() = rec_.id;
  rec_.start_ns = now_ns();
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  rec_.end_ns = now_ns();
  Tracer::current() = saved_current_;
  tracer_->record(rec_);
}

}  // namespace perfbench
