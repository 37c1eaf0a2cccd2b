// Canonical binary codec for simulation snapshots (DESIGN.md §9).
//
// Layout: a 4-byte magic "IMSN" and a little-endian u32 codec version,
// followed by a flat stream of tagged values. Every value is prefixed by a
// one-byte Tag, so the reader verifies it consumes exactly the layout the
// writer produced — a field-order bug surfaces immediately as a typed
// mismatch with a byte offset, never as silently garbled state. Named
// sections bracket logical groups; they keep mismatch errors local and make
// the stream self-describing enough for a generic JSON dump (debug_dump).
//
// All multi-byte values are little-endian regardless of host order; doubles
// travel as the IEEE-754 bit pattern, so encode/decode round-trips are
// bit-exact.
//
// Every persisted record says its fields once, in wire order, in a field
// list `template <class Ar> void fields(Ar&, Record&)` in src/snap. Three
// archives walk it through the operations of Archive: StateWriter encodes,
// StateHash digests and StateReader decodes and checks (DESIGN.md §9).
//
// Each value moves on its own: the writer appends a tag plus fixed-width
// payload into a growing buffer, the reader checks the tag and the
// remaining length once and copies the payload out. The per-value methods
// are inline so the field lists compile down to stores and loads.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "geom/vec2.hpp"

namespace imobif::snap {

/// Bumped whenever the snapshot layout changes; readers reject any other
/// version with a clear error instead of misinterpreting the stream.
inline constexpr std::uint32_t kCodecVersion = 2;

enum class Tag : std::uint8_t {
  kU8 = 1,
  kU32 = 2,
  kU64 = 3,
  kI64 = 4,
  kF64 = 5,
  kBool = 6,
  kString = 7,
  kSectionBegin = 8,
  kSectionEnd = 9,
};

const char* to_string(Tag tag);

namespace detail {

template <typename T>
void store_le(char* out, T v) {
  static_assert(std::is_unsigned_v<T>);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, &v, sizeof v);
  } else {
    for (std::size_t i = 0; i < sizeof v; ++i) {
      out[i] = static_cast<char>(v >> (8 * i));
    }
  }
}

template <typename T>
T load_le(const char* in) {
  static_assert(std::is_unsigned_v<T>);
  T v;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, in, sizeof v);
  } else {
    v = 0;
    for (std::size_t i = 0; i < sizeof v; ++i) {
      v |= static_cast<T>(static_cast<std::uint8_t>(in[i])) << (8 * i);
    }
  }
  return v;
}

/// A double or a util::Quantity as its raw double.
template <typename T>
double raw(const T& v) {
  if constexpr (std::is_arithmetic_v<T>) {
    return v;
  } else {
    return v.value();
  }
}

}  // namespace detail

/// The default element walk of optional() and list(): the element's own
/// field list.
inline constexpr auto kFields = [](auto& ar, auto& rec) { fields(ar, rec); };
using Fields = decltype(kFields);
/// Element walks for lists and optionals of plain values.
inline constexpr auto kU64 = [](auto& ar, auto& v) { ar.u64(v); };
inline constexpr auto kF64 = [](auto& ar, auto& v) { ar.f64(v); };
inline constexpr auto kVec2 = [](auto& ar, geom::Vec2& p) { ar.vec2(p); };

template <class T, class Each>
std::size_t min_bytes(Each each);

/// The archive operations of the writing archives (StateWriter,
/// StateHash) and of the reading one (StateReader, kReading). Each moves
/// one field between a record and the stream in the archive's direction;
/// on the way in, a checked operation rejects a value that a later layer's
/// contract excludes through StateReader::fail.
template <class Self, bool kReading>
class Archive {
 public:
  /// Writes `rec` through its field list (StateReader::get reads one). A
  /// field list takes its record by non-const reference so that the
  /// reader can fill it; the writing archives only read through it.
  template <class R>
  void record(const R& rec) {
    static_assert(!kReading, "StateReader::get fills a record");
    fields(self(), const_cast<R&>(rec));
  }

  template <class T>
  void u8(T&& v) { scalar<std::uint8_t>(Tag::kU8, v); }
  template <class T>
  void u32(T&& v) { scalar<std::uint32_t>(Tag::kU32, v); }
  template <class T>
  void u64(T&& v) { scalar<std::uint64_t>(Tag::kU64, v); }
  template <class T>
  void i64(T&& v) { scalar<std::uint64_t>(Tag::kI64, v); }
  template <class T>
  void boolean(T&& v) { scalar<std::uint8_t>(Tag::kBool, v); }
  /// A double or a util::Quantity, as its IEEE-754 bits.
  template <class T>
  void f64(T&& v) {
    if constexpr (kReading) {
      v = std::remove_cvref_t<T>{std::bit_cast<double>(
          self().template take<std::uint64_t>(Tag::kF64))};
    } else {
      self().put(Tag::kF64, std::bit_cast<std::uint64_t>(detail::raw(v)));
    }
  }
  template <class T>
  void str(T&& v) {
    if constexpr (kReading) {
      v = std::string(self().text(Tag::kString));
    } else {
      self().text(Tag::kString, std::string_view(v));
    }
  }
  void vec2(geom::Vec2& p) {
    f64(p.x);
    f64(p.y);
  }
  /// Node coordinates the grid index can map to cells (NaN fails too).
  void position(geom::Vec2& p) {
    vec2(p);
    require(std::abs(p.x) <= 1e9 && std::abs(p.y) <= 1e9,
            [] { return std::string("node position out of range"); });
  }
  template <class T>
  void finite(T& v, const char* what) {
    f64(v);
    require(std::isfinite(detail::raw(v)),
            [&] { return std::string(what) + " is not finite"; });
  }
  /// An enum stored as a u8 in [0, max].
  template <class E>
  void enumeration(E& v, E max, const char* what) {
    auto raw = static_cast<std::uint8_t>(v);
    u8(raw);
    require(raw <= static_cast<std::uint8_t>(max), [&] {
      return "invalid " + std::string(what) + " " + std::to_string(raw);
    });
    if constexpr (kReading) v = static_cast<E>(raw);
  }
  /// A variant's u8 index; reading emplaces that alternative.
  template <class... Ts>
  void alternative(std::variant<Ts...>& v, const char* what) {
    auto index = static_cast<std::uint8_t>(v.index());
    u8(index);
    require(index < sizeof...(Ts), [&] {
      return "unknown " + std::string(what) + " index " +
             std::to_string(index);
    });
    if constexpr (kReading) {
      [&]<std::size_t... I>(std::index_sequence<I...>) {
        ((index == I ? (void)v.template emplace<I>() : void()), ...);
      }(std::index_sequence_for<Ts...>{});
    }
  }
  /// Rejects the input unless `ok`; `message()` builds the reason.
  template <class Message>
  void require(bool ok, Message&& message) {
    if constexpr (kReading) {
      if (!ok) self().fail(message());
    }
  }
  template <class T, class Each = Fields>
  void optional(std::optional<T>& o, Each each = kFields) {
    bool present = o.has_value();
    boolean(present);
    if constexpr (kReading) {
      if (present) {
        o.emplace();
      } else {
        o.reset();
      }
    }
    if (present) each(self(), *o);
  }
  /// A u64 count, then the elements. The reader bounds the count by
  /// min_bytes() of one element, so it never sizes an allocation past the
  /// input.
  template <class T, class Each = Fields>
  void list(std::vector<T>& v, Each each = kFields) {
    if constexpr (kReading) {
      v.resize(self().count(min_bytes<T>(each)));
    } else {
      u64(v.size());
    }
    for (T& x : v) each(self(), x);
  }
  /// A const list of records, for the writing archives.
  template <class T>
  void list(const std::vector<T>& v) {
    static_assert(!kReading, "StateReader fills a non-const list");
    u64(v.size());
    for (const T& x : v) record(x);
  }

 private:
  /// One integer, enum or bool field as a `W` payload.
  template <class W, class T>
  void scalar(Tag tag, T& v) {
    if constexpr (kReading) {
      v = static_cast<std::remove_cvref_t<T>>(self().template take<W>(tag));
    } else {
      self().put(tag, static_cast<W>(v));
    }
  }
  Self& self() { return static_cast<Self&>(*this); }
};

/// Encoded size of one value: its tag byte plus a payload of `payload`
/// bytes. min_bytes() derives the sizes of whole records.
inline constexpr std::size_t encoded_bytes(std::size_t payload) {
  return 1 + payload;
}
inline constexpr std::size_t kEncodedU8 = encoded_bytes(1);
inline constexpr std::size_t kEncodedBool = encoded_bytes(1);
inline constexpr std::size_t kEncodedU32 = encoded_bytes(4);
/// u64, i64 and f64 alike.
inline constexpr std::size_t kEncodedWord = encoded_bytes(8);

/// Serializes tagged values into an in-memory byte string: the encoding
/// archive. StateHash shares its archive operations, so one field list
/// both writes and digests a record.
// snap:transient(codec machinery, not simulated run state)
class StateWriter : public Archive<StateWriter, false> {
 public:
  /// `reserve` pre-sizes the buffer; a snapshot grows it geometrically
  /// past that.
  explicit StateWriter(std::size_t reserve = 256);

  void begin_section(std::string_view name) {
    text(Tag::kSectionBegin, name);
    ++open_sections_;
  }
  void end_section();

  /// The bytes written so far.
  std::string_view data() const { return {buf_.data(), len_}; }

  /// Moves the finished byte string out, leaving the writer empty.
  std::string take() &&;

  /// Atomic write: the bytes land in `path + ".tmp"` and are renamed into
  /// place, so a crash mid-write never leaves a truncated snapshot under
  /// the final name. Throws std::runtime_error on I/O failure.
  void write_file(const std::string& path) const;

 private:
  friend class Archive<StateWriter, false>;

  /// Claims `n` bytes at the end of the stream and returns where they go.
  char* claim(std::size_t n) {
    if (buf_.size() - len_ < n) grow(n);
    char* out = buf_.data() + len_;
    len_ += n;
    return out;
  }
  void grow(std::size_t n);

  template <typename T>
  void put(Tag tag, T payload) {
    char* out = claim(encoded_bytes(sizeof(T)));
    out[0] = static_cast<char>(tag);
    detail::store_le(out + 1, payload);
  }
  void text(Tag tag, std::string_view v) {
    put(tag, static_cast<std::uint32_t>(v.size()));
    if (!v.empty()) std::memcpy(claim(v.size()), v.data(), v.size());
  }

  /// Sized ahead of the stream; bytes past `len_` are scratch.
  std::string buf_;
  std::size_t len_ = 0;
  int open_sections_ = 0;
};

/// Smallest encoding of one T as `each` walks it. A value-initialized T
/// has its optionals empty and its lists empty, so it encodes exactly its
/// unconditional fields.
template <class T, class Each>
std::size_t min_bytes(Each each) {
  static const std::size_t bytes = [&] {
    StateWriter writer;
    const std::size_t header = writer.data().size();
    T rec{};
    each(writer, rec);
    return writer.data().size() - header;
  }();
  return bytes;
}

/// Consumes a StateWriter stream with per-value type checking: the
/// decoding archive. Every mismatch (wrong tag, wrong section name,
/// truncation, unknown version) and every value a later layer's contract
/// excludes throws std::runtime_error naming the byte offset and what was
/// expected. The reader views the caller's bytes, which must outlive it.
// snap:transient(codec machinery, not simulated run state)
class StateReader : public Archive<StateReader, true> {
 public:
  /// Validates magic and version. Rejects any version other than
  /// kCodecVersion: snapshots are not forward- or backward-compatible.
  explicit StateReader(std::string_view data);
  explicit StateReader(const char* data)
      : StateReader(std::string_view(data)) {}
  /// A temporary would dangle.
  explicit StateReader(std::string&& data) = delete;

  std::uint32_t version() const { return version_; }

  using Archive::boolean, Archive::f64, Archive::i64, Archive::str,
      Archive::u32, Archive::u64, Archive::u8;
  std::uint8_t u8() { return take<std::uint8_t>(Tag::kU8); }
  std::uint32_t u32() { return take<std::uint32_t>(Tag::kU32); }
  std::uint64_t u64() { return take<std::uint64_t>(Tag::kU64); }
  std::int64_t i64() {
    return static_cast<std::int64_t>(take<std::uint64_t>(Tag::kI64));
  }
  double f64() { return std::bit_cast<double>(take<std::uint64_t>(Tag::kF64)); }
  bool boolean() { return take<std::uint8_t>(Tag::kBool) != 0; }
  std::string str() { return std::string(text(Tag::kString)); }
  void begin_section(std::string_view expected);
  void end_section() { (void)take<std::uint8_t, 0>(Tag::kSectionEnd); }

  /// Reads a u64 element count and rejects it unless that many elements,
  /// each at least `min_item_bytes` encoded, fit in the unread bytes. An
  /// untrusted count therefore never sizes an allocation past the input.
  std::uint64_t count(std::size_t min_item_bytes);

  /// count() bounded by min_bytes() of one T.
  template <class T, class Each = Fields>
  std::uint64_t count(Each each = kFields) {
    return count(min_bytes<T>(each));
  }
  /// One T as `each` walks it.
  template <class T, class Each = Fields>
  T get(Each each = kFields) {
    T v{};
    each(*this, v);
    return v;
  }

  /// True once every byte has been consumed (well-formed stream end).
  bool at_end() const { return pos_ >= data_.size(); }

  /// Throws std::runtime_error("snapshot: <what> at byte offset <pos>").
  [[noreturn]] void fail(const std::string& what) const;

 private:
  friend class Archive<StateReader, true>;
  /// Walks any stream by peeking at each tag.
  friend std::string debug_dump(std::string_view data);

  /// One tagged value: a single bounds-and-tag check, then the payload.
  template <typename T, std::size_t Payload = sizeof(T)>
  T take(Tag tag) {
    if (data_.size() - pos_ < encoded_bytes(Payload) ||
        data_[pos_] != static_cast<char>(tag)) [[unlikely]] {
      fail_take(tag);
    }
    T v{};
    if constexpr (Payload != 0) v = detail::load_le<T>(data_.data() + pos_ + 1);
    pos_ += encoded_bytes(Payload);
    return v;
  }
  /// A tag, a u32 length and that many bytes; the view aliases the input.
  std::string_view text(Tag tag);
  [[noreturn]] void fail_take(Tag expected) const;

  std::string_view data_;
  std::size_t pos_ = 0;
  std::uint32_t version_ = 0;
};

/// Renders any codec stream as indented JSON for inspection: sections
/// become {"section": name, "items": [...]} objects, scalars their plain
/// JSON values. Throws std::runtime_error on malformed input.
std::string debug_dump(std::string_view data);

/// Writes `data` to `path` via a same-directory ".tmp" file and an atomic
/// rename. Throws std::runtime_error on I/O failure.
void write_file_atomic(const std::string& path, std::string_view data);

/// Reads a whole file as bytes. Throws std::runtime_error when unreadable.
std::string read_file(const std::string& path);

}  // namespace imobif::snap
