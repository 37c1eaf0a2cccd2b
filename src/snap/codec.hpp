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
// Both directions move one value at a time: the writer appends a tag plus
// fixed-width payload into a growing buffer, the reader checks the tag and
// the remaining length once and copies the payload out. The per-value
// methods are inline so the snapshot templates compile down to stores and
// loads.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>

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

}  // namespace detail

/// Encoded size of one value: its tag byte plus a payload of `payload`
/// bytes. Decoders use these to bound untrusted element counts.
inline constexpr std::size_t encoded_bytes(std::size_t payload) {
  return 1 + payload;
}
inline constexpr std::size_t kEncodedU8 = encoded_bytes(1);
inline constexpr std::size_t kEncodedBool = encoded_bytes(1);
inline constexpr std::size_t kEncodedU32 = encoded_bytes(4);
/// u64, i64 and f64 alike.
inline constexpr std::size_t kEncodedWord = encoded_bytes(8);

/// Serializes tagged values into an in-memory byte string. Also the model
/// for the Sink concept shared with snap::StateHash: any type with this
/// method set can consume the same encode_*() template.
// snap:transient(codec machinery, not simulated run state)
class StateWriter {
 public:
  /// `reserve` pre-sizes the buffer; a snapshot grows it geometrically
  /// past that.
  explicit StateWriter(std::size_t reserve = 256);

  void u8(std::uint8_t v) { put(Tag::kU8, v); }
  void u32(std::uint32_t v) { put(Tag::kU32, v); }
  void u64(std::uint64_t v) { put(Tag::kU64, v); }
  void i64(std::int64_t v) { put(Tag::kI64, static_cast<std::uint64_t>(v)); }
  void f64(double v) { put(Tag::kF64, std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { put(Tag::kBool, static_cast<std::uint8_t>(v)); }
  void str(std::string_view v) { text(Tag::kString, v); }
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

/// Consumes a StateWriter stream with per-value type checking. Every
/// mismatch (wrong tag, wrong section name, truncation, unknown version)
/// throws std::runtime_error naming the byte offset and what was expected.
/// The reader views the caller's bytes, which must outlive it.
// snap:transient(codec machinery, not simulated run state)
class StateReader {
 public:
  /// Validates magic and version. Rejects any version other than
  /// kCodecVersion: snapshots are not forward- or backward-compatible.
  explicit StateReader(std::string_view data);
  explicit StateReader(const char* data)
      : StateReader(std::string_view(data)) {}
  /// A temporary would dangle; from_file() is the owning constructor.
  explicit StateReader(std::string&& data) = delete;

  /// Reads the whole file into memory the reader owns. Throws
  /// std::runtime_error when the file is unreadable or fails header
  /// validation.
  static StateReader from_file(const std::string& path);

  std::uint32_t version() const { return version_; }

  std::uint8_t u8() { return take<std::uint8_t>(Tag::kU8, "u8"); }
  std::uint32_t u32() { return take<std::uint32_t>(Tag::kU32, "u32"); }
  std::uint64_t u64() { return take<std::uint64_t>(Tag::kU64, "u64"); }
  std::int64_t i64() {
    return static_cast<std::int64_t>(take<std::uint64_t>(Tag::kI64, "u64"));
  }
  double f64() {
    return std::bit_cast<double>(take<std::uint64_t>(Tag::kF64, "u64"));
  }
  bool boolean() { return take<std::uint8_t>(Tag::kBool, "bool") != 0; }
  std::string str() { return std::string(text(Tag::kString, "string body")); }
  void begin_section(std::string_view expected);
  void end_section() { (void)take<std::uint8_t, 0>(Tag::kSectionEnd, ""); }

  /// Reads a u64 element count and rejects it unless that many elements,
  /// each at least `min_item_bytes` encoded, fit in the unread bytes. An
  /// untrusted count therefore never sizes an allocation past the input.
  std::uint64_t count(std::size_t min_item_bytes);

  /// True once every byte has been consumed (well-formed stream end).
  bool at_end() const { return pos_ >= data_.size(); }

  /// Throws std::runtime_error("snapshot: <what> at byte offset <pos>").
  [[noreturn]] void fail(const std::string& what) const;

 private:
  explicit StateReader(std::unique_ptr<const std::string> owned);

  /// One tagged value: a single bounds-and-tag check, then the payload.
  template <typename T, std::size_t Payload = sizeof(T)>
  T take(Tag tag, const char* payload_name) {
    if (data_.size() - pos_ < encoded_bytes(Payload) ||
        data_[pos_] != static_cast<char>(tag)) [[unlikely]] {
      fail_take(tag, payload_name);
    }
    T v{};
    if constexpr (Payload != 0) v = detail::load_le<T>(data_.data() + pos_ + 1);
    pos_ += encoded_bytes(Payload);
    return v;
  }
  /// A tag, a u32 length and that many bytes; the view aliases the input.
  std::string_view text(Tag tag, const char* body_name);
  [[noreturn]] void fail_take(Tag expected, const char* payload_name) const;

  std::unique_ptr<const std::string> owned_;  // from_file() only
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
