// Versioned, byte-deterministic snapshot container.
//
// A snapshot is a flat byte blob: a fixed header (magic, format version,
// monotonic epoch) followed by named sections. Every section carries its
// payload length and an FNV-1a digest of the payload, so truncation and
// corruption are detected per section at open time rather than surfacing
// as garbled component state deep inside a restore. All integers are
// little-endian fixed-width; doubles travel as their IEEE-754 bit
// patterns — two snapshots of identical system state are byte-identical.
//
// SnapshotWriter builds sections in order; SnapshotReader indexes them by
// name and hands out bounded cursors. Both offer the same by-reference
// field calls (u8, u32, u64, i64, f64, boolean, str, words, list,
// entries), so a section's schema is one field list, written once as a
// template over the archive: save runs it with a writer, restore with a
// reader, and the two directions cannot drift apart. `kLoading` tells
// the list which way it runs, where restore must apply a value through
// a setter rather than assign it. The system's field lists live in
// snap::SystemSnapshot, the soak checkpoint's in load/soak.cpp.
#pragma once

#include <concepts>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace vapres::snap {

/// FNV-1a over a byte range (the same digest the soak harness folds its
/// run digest with; see load/soak.cpp).
std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t seed = 0xcbf29ce484222325ULL);

class SnapshotWriter {
 public:
  static constexpr std::uint32_t kMagic = 0x56534E50;  // "VSNP"
  static constexpr std::uint32_t kVersion = 2;

  /// `epoch` is the caller-maintained monotonic snapshot counter; a
  /// restored system's next checkpoint must use a strictly larger epoch.
  explicit SnapshotWriter(std::uint64_t epoch);

  /// Opens a named section; primitives append to it until end_section().
  void begin_section(const std::string& name);
  void end_section();

  /// A field list branches on this where restore must apply a value
  /// through a setter (true on SnapshotReader).
  static constexpr bool kLoading = false;

  void u8(std::uint8_t v);
  template <class E>
    requires std::is_enum_v<E>
  void u8(E v) {
    u8(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(const std::string& s);

  /// Element count of the list that follows (a u32).
  void count(std::size_t n) { u32(static_cast<std::uint32_t>(n)); }
  /// Count-prefixed 32-bit words (any container of std::uint32_t).
  template <class Words>
  void words(const Words& v) {
    count(v.size());
    for (const std::uint32_t x : v) u32(x);
  }
  /// Count-prefixed list; `field(element)` writes one element.
  /// `min_bytes` only matters to the reader (see SnapshotReader::count).
  template <class Seq, class Fn>
  void list(const Seq& seq, std::size_t /*min_bytes*/, Fn&& field) {
    count(seq.size());
    for (const auto& e : seq) field(e);
  }
  /// Count-prefixed map; `field(key, value)` writes one entry.
  template <class Map, class Fn>
  void entries(const Map& map, std::size_t /*min_bytes*/, Fn&& field) {
    count(map.size());
    for (const auto& [k, v] : map) field(k, v);
  }

  std::uint64_t epoch() const { return epoch_; }

  /// Finalizes the blob. The writer must not be reused afterwards.
  std::string finish();

 private:
  std::uint64_t epoch_;
  std::string blob_;
  std::string section_name_;
  std::vector<std::uint8_t> payload_;
  bool in_section_ = false;
  bool finished_ = false;
};

class SnapshotReader {
 public:
  /// Parses and validates the header and the section index. Throws
  /// vapres::ModelError on bad magic, unsupported version, truncation,
  /// or a section whose digest does not match its payload.
  explicit SnapshotReader(std::string blob);

  std::uint64_t epoch() const { return epoch_; }

  bool has_section(const std::string& name) const;
  std::vector<std::string> section_names() const;

  /// Positions the cursor at the start of `name`'s payload. Throws if
  /// the section is absent.
  void open_section(const std::string& name) const;
  /// Bytes left in the currently open section.
  std::size_t remaining() const;

  /// See SnapshotWriter::kLoading.
  static constexpr bool kLoading = true;

  std::uint8_t u8() const;
  std::uint32_t u32() const;
  std::uint64_t u64() const;
  std::int64_t i64() const;
  double f64() const;
  bool boolean() const { return u8() != 0; }
  std::string str() const;

  // By-reference forms, mirroring SnapshotWriter's field calls.
  void u8(std::uint8_t& v) const { v = u8(); }
  template <class E>
    requires std::is_enum_v<E>
  void u8(E& v) const {
    v = static_cast<E>(u8());
  }
  void u32(std::uint32_t& v) const { v = u32(); }
  template <std::integral T>
  void u64(T& v) const {
    v = static_cast<T>(u64());
  }
  template <std::integral T>
  void i64(T& v) const {
    v = static_cast<T>(i64());
  }
  void f64(double& v) const { v = f64(); }
  void boolean(bool& v) const { v = boolean(); }
  void boolean(std::vector<bool>::reference v) const { v = boolean(); }
  void str(std::string& s) const { s = str(); }

  /// Reads a list's element count and refuses it (ModelError) unless
  /// `count * min_bytes` fits in the rest of the section, so a corrupt
  /// count can neither allocate nor loop past the payload. `min_bytes`
  /// is a lower bound on one element's encoded size (>= 1).
  std::uint32_t count(std::size_t min_bytes) const;
  template <class Words>
  void words(Words& v) const {
    v.resize(count(4));
    for (auto& x : v) x = u32();
  }
  template <class Seq, class Fn>
  void list(Seq& seq, std::size_t min_bytes, Fn&& field) const {
    seq.clear();
    seq.resize(count(min_bytes));
    for (auto&& e : seq) field(e);
  }
  /// Replaces `map` with the blob's entries.
  template <class Map, class Fn>
  void entries(Map& map, std::size_t min_bytes, Fn&& field) const {
    map.clear();
    const std::uint32_t n = count(min_bytes);
    for (std::uint32_t i = 0; i < n; ++i) {
      typename Map::key_type k{};
      typename Map::mapped_type v{};
      field(k, v);
      map.emplace(std::move(k), std::move(v));
    }
  }

 private:
  struct Section {
    std::string name;
    std::size_t offset = 0;  // payload start within blob_
    std::size_t size = 0;
  };
  const Section& find(const std::string& name) const;
  void need(std::size_t bytes) const;

  std::string blob_;
  std::uint64_t epoch_ = 0;
  std::vector<Section> sections_;
  // Cursor state is logically part of iteration, not of the snapshot.
  mutable std::size_t cursor_ = 0;
  mutable std::size_t cursor_end_ = 0;
};

}  // namespace vapres::snap
