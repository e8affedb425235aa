// Low-overhead structured tracing.
//
// A bounded ring buffer of fixed-size POD records (obs::RingBuffer), written
// through interned name ids so the hot path never touches a string. A
// tracer starts disabled; record calls on a disabled tracer are a single
// predictable branch.
//
// Records carry simulated time. Exports:
//  * write_chrome_trace: Chrome trace_event JSON (the "JSON Array Format"
//    wrapped in {"traceEvents": ...}), loadable in chrome://tracing and
//    Perfetto — 1 simulated second renders as 1 trace second; the `track`
//    field becomes the tid, so per-portable / per-link activity lands on
//    separate timeline rows.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/ring_buffer.h"
#include "sim/time.h"

namespace imrm::obs {

/// Index into the tracer's interned name table.
using NameId = std::uint32_t;
inline constexpr NameId kInvalidName = ~NameId{0};

/// One trace record; 'i' = instant event, 'X' = complete span, 'C' =
/// counter track (all straight from the trace_event phase vocabulary).
struct TraceRecord {
  double ts_us = 0.0;   // simulated time, microseconds
  double dur_us = 0.0;  // span duration ('X' only)
  double value = 0.0;   // free-form payload; the sample for 'C'
  NameId name = kInvalidName;
  std::uint32_t track = 0;  // rendered as tid
  char phase = 'i';
  /// Rendered as pid; pid 1 is the simulated-time "imrm-sim" process. The
  /// sharded runner claims further pids for its wall-clock shard lanes
  /// (declare_process), keeping the two time bases on separate tracks.
  std::uint32_t pid = 1;
};

class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  explicit Tracer(std::size_t capacity = kDefaultCapacity) : records_(capacity) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Interns a name/category pair (setup-time; allocates). Ids are dense
  /// and stable; interning the same pair again returns the same id.
  NameId intern(std::string_view name, std::string_view category = "sim");

  /// Registers a process lane label for the viewer (setup-time; allocates).
  /// Emitted as a process_name metadata record alongside pid 1's. Used by
  /// the sharded runner to label its wall-clock pids ("shard-workers" etc.).
  void declare_process(std::uint32_t pid, std::string_view name);

  void instant(sim::SimTime t, NameId name, std::uint32_t track = 0,
               double value = 0.0) {
    if (enabled_) records_.push({t.to_seconds() * 1e6, 0.0, value, name, track, 'i'});
  }

  /// A span covering [start, end] in simulated time.
  void complete(sim::SimTime start, sim::SimTime end, NameId name,
                std::uint32_t track = 0, double value = 0.0) {
    if (enabled_) {
      records_.push({start.to_seconds() * 1e6, (end - start).to_seconds() * 1e6,
                     value, name, track, 'X'});
    }
  }

  /// A wall-clock span on a declared pid lane: [start_us, start_us + dur_us]
  /// microseconds since run start on pid/tid. The sharded runner's profile
  /// lanes go through here; pid 1 stays reserved for simulated time.
  void complete_wall(double start_us, double dur_us, NameId name,
                     std::uint32_t pid, std::uint32_t track, double value = 0.0) {
    if (enabled_) records_.push({start_us, dur_us, value, name, track, 'X', pid});
  }

  /// A sample on a counter track (rendered as a stacked area chart).
  void counter(sim::SimTime t, NameId name, double value) {
    if (enabled_) records_.push({t.to_seconds() * 1e6, 0.0, value, name, 0, 'C'});
  }

  [[nodiscard]] const RingBuffer<TraceRecord>& records() const { return records_; }
  [[nodiscard]] std::uint64_t dropped() const { return records_.dropped(); }
  [[nodiscard]] std::size_t capacity() const { return records_.capacity(); }
  void clear() { records_.clear(); }

  [[nodiscard]] std::string_view name_of(NameId id) const { return names_[id].name; }

  /// Chrome trace_event JSON. Always emits a valid document (empty
  /// traceEvents when tracing is off); a dropped-record count is included
  /// as document metadata when eviction occurred.
  void write_chrome_trace(std::ostream& os) const;

 private:
  struct InternedName {
    std::string name;
    std::string category;
  };

  RingBuffer<TraceRecord> records_;
  std::vector<InternedName> names_;
  std::vector<std::pair<std::uint32_t, std::string>> processes_;
  bool enabled_ = false;
};

}  // namespace imrm::obs
