#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <tuple>
#include <utility>
#include <vector>

#include "core/simulator.h"

namespace nfvsb::obs {

TraceRecorder::TraceRecorder(core::Simulator& sim, Config cfg)
    : sim_(sim), cfg_(std::move(cfg)) {}

TraceRecorder::~TraceRecorder() {
  if (!cfg_.path.empty()) (void)write_json(cfg_.path);
}

core::SimTime TraceRecorder::stamp(core::SimTime at) const {
  return at == core::kNoTimestamp ? sim_.now() : at;
}

TraceRecorder::TrackId TraceRecorder::track(const std::string& name) {
  const auto it = tracks_.find(name);
  if (it != tracks_.end()) return it->second;
  const auto id = static_cast<TrackId>(tracks_.size() + 1);
  tracks_.emplace(name, id);
  return id;
}

void TraceRecorder::complete(TrackId t, const char* name, core::SimTime start,
                             core::SimDuration dur, std::uint64_t arg) {
  events_.push_back(Event{'X', t, name, start, dur, 0, arg});
}

void TraceRecorder::instant(TrackId t, const char* name, core::SimTime at) {
  events_.push_back(Event{'i', t, name, stamp(at), 0, 0, 0});
}

void TraceRecorder::counter(const std::string& name, std::uint64_t value) {
  events_.push_back(Event{'C', 0, name, sim_.now(), 0, 0, value});
}

void TraceRecorder::async_begin(std::uint32_t trace_id,
                                const std::string& stage, core::SimTime at) {
  events_.push_back(Event{'b', 0, stage, stamp(at), 0, trace_id, 0});
}

void TraceRecorder::async_end(std::uint32_t trace_id,
                              const std::string& stage) {
  events_.push_back(Event{'e', 0, stage, sim_.now(), 0, trace_id, 0});
}

namespace {

// Exact picosecond -> microsecond decimal: "%lld.%06lld", no floating
// point, so traces are byte-deterministic.
void append_us(std::string& out, core::SimTime ps) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%lld.%06lld",
                static_cast<long long>(ps / 1'000'000),
                static_cast<long long>(ps % 1'000'000));
  out += buf;
}

void append_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
}

}  // namespace

std::string TraceRecorder::to_json() const {
  std::string j;
  j.reserve(events_.size() * 96 + 256);
  j += "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) j += ',';
    first = false;
    j += '\n';
  };
  // Canonical order: by time, then by every other field, so the file
  // depends only on which events were recorded, not on the order the hooks
  // ran in (an async begin sorts before an end at the same instant).
  std::vector<const Event*> order;
  order.reserve(events_.size());
  for (const Event& e : events_) order.push_back(&e);
  std::sort(order.begin(), order.end(), [](const Event* a, const Event* b) {
    return std::tie(a->ts, a->ph, a->track, a->name, a->dur, a->id, a->arg) <
           std::tie(b->ts, b->ph, b->track, b->name, b->dur, b->id, b->arg);
  });
  for (const Event* ep : order) {
    const Event& e = *ep;
    sep();
    switch (e.ph) {
      case 'X':
        j += "{\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(e.track) +
             ",\"name\":\"";
        append_escaped(j, e.name);
        j += "\",\"ts\":";
        append_us(j, e.ts);
        j += ",\"dur\":";
        append_us(j, e.dur);
        j += ",\"args\":{\"n\":" + std::to_string(e.arg) + "}}";
        break;
      case 'i':
        j += "{\"ph\":\"i\",\"pid\":1,\"tid\":" + std::to_string(e.track) +
             ",\"name\":\"";
        append_escaped(j, e.name);
        j += "\",\"ts\":";
        append_us(j, e.ts);
        j += ",\"s\":\"t\"}";
        break;
      case 'C':
        j += "{\"ph\":\"C\",\"pid\":1,\"name\":\"";
        append_escaped(j, e.name);
        j += "\",\"ts\":";
        append_us(j, e.ts);
        j += ",\"args\":{\"value\":" + std::to_string(e.arg) + "}}";
        break;
      case 'b':
      case 'e':
        j += "{\"cat\":\"pkt\",\"ph\":\"";
        j += e.ph;
        j += "\",\"pid\":1,\"tid\":1,\"id\":" + std::to_string(e.id) +
             ",\"name\":\"";
        append_escaped(j, e.name);
        j += "\",\"ts\":";
        append_us(j, e.ts);
        j += "}";
        break;
      default:
        break;
    }
  }
  // Track names as thread_name metadata so Perfetto labels the rows.
  for (const auto& [name, id] : tracks_) {
    sep();
    j += "{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(id) +
         ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    append_escaped(j, name);
    j += "\"}}";
  }
  j += "\n]}\n";
  return j;
}

bool TraceRecorder::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string j = to_json();
  const bool ok = std::fwrite(j.data(), 1, j.size(), f) == j.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace nfvsb::obs
