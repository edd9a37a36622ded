// Minimal streaming JSON emitter shared by every component that writes
// machine-readable output (event-log records, Chrome traces,
// CGRAF_BENCH_JSON lines). Replaces the hand-rolled printf JSON that never
// escaped strings.
//
// Usage:
//   JsonWriter w;
//   w.begin_object()
//       .field("name", "B13 \"large\"")   // escaped automatically
//       .field("nodes", 42L)
//       .key("per_thread").begin_array().value(1L).value(2L).end_array()
//       .end_object();
//   w.str();  // {"name":"B13 \"large\"","nodes":42,"per_thread":[1,2]}
//
// Calling field()/key()/value() with no enclosing begin_object() emits an
// object-body *fragment* (`"k":v,"k2":v2`) — the form the benches embed in
// composite records.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace cgraf::obs {

class JsonWriter {
 public:
  // Appends `s` to `out` with JSON string escaping applied (quotes,
  // backslashes, control characters); does NOT add surrounding quotes.
  static void append_escaped(std::string& out, std::string_view s);
  // `s` escaped and quoted, as a standalone string.
  static std::string quoted(std::string_view s);

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  // NaN and +/-Inf have no JSON representation; they are emitted as null
  // (never as the literal `nan`/`inf`, which breaks every strict parser).
  // Consumers treat a null metric as "not available".
  JsonWriter& value(double v);
  JsonWriter& value(long v);
  JsonWriter& value(int v) { return value(static_cast<long>(v)); }
  JsonWriter& value(bool v);
  JsonWriter& null();
  // Splices a pre-rendered JSON fragment in value position, verbatim.
  JsonWriter& raw(std::string_view fragment);

  template <typename T>
  JsonWriter& field(std::string_view k, T v) {
    key(k);
    return value(v);
  }
  JsonWriter& raw_field(std::string_view k, std::string_view fragment) {
    key(k);
    return raw(fragment);
  }

  const std::string& str() const { return out_; }
  bool empty() const { return out_.empty(); }
  void clear();

 private:
  void comma_for_value();

  std::string out_;
  std::vector<char> stack_;  // '{' or '['
  bool need_comma_ = false;
  bool have_key_ = false;
};

}  // namespace cgraf::obs
