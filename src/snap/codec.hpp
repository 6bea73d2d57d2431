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
// bit-exact. TaggedEncoder is the one writer of that layout: StateWriter
// runs it into a byte string and StateHash (state_hash.hpp) into an FNV-1a
// digest. Records are not spelled out here: each has one field list
// (archive.hpp) that a Writer walks into either encoder and a Reader walks
// out of a StateReader.
#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

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

/// Byte sinks for TaggedEncoder: a sink names the state the bytes go
/// into and how a run of bytes lands there.
struct ByteStringSink {
  using State = std::string;
  static void put(State& out, std::string_view bytes) { out.append(bytes); }
};

struct Fnv1aSink {
  using State = std::uint64_t;
  static constexpr State kOffsetBasis = 0xcbf29ce484222325ull;
  static constexpr State kPrime = 0x100000001b3ull;
  static void put(State& hash, std::string_view bytes) {
    for (const char c : bytes) {
      hash = (hash ^ static_cast<std::uint8_t>(c)) * kPrime;
    }
  }
};

/// The one tagged-value encoder: each value is its Tag byte followed by
/// its little-endian payload, strings and section names by a u32 length
/// and their bytes. StateWriter feeds it into a byte string, StateHash into
/// an FNV-1a digest, so the hash is exactly the hash of the writer's bytes
/// (after the header) without ever building them.
// snap:transient(codec machinery, not simulated run state)
template <typename Sink>
class TaggedEncoder {
 public:
  void u8(std::uint8_t v) { value(Tag::kU8, v, 1); }
  void u32(std::uint32_t v) { value(Tag::kU32, v, 4); }
  void u64(std::uint64_t v) { value(Tag::kU64, v, 8); }
  void i64(std::int64_t v) {
    value(Tag::kI64, static_cast<std::uint64_t>(v), 8);
  }
  void f64(double v) { value(Tag::kF64, std::bit_cast<std::uint64_t>(v), 8); }
  void boolean(bool v) { value(Tag::kBool, v ? 1 : 0, 1); }
  void str(std::string_view v) {
    value(Tag::kString, v.size(), 4);
    Sink::put(state_, v);
  }
  void begin_section(std::string_view name) {
    value(Tag::kSectionBegin, name.size(), 4);
    Sink::put(state_, name);
    ++open_sections_;
  }
  void end_section() {
    if (open_sections_ <= 0) {
      throw std::logic_error("snapshot: end_section without a begin");
    }
    value(Tag::kSectionEnd, 0, 0);
    --open_sections_;
  }

 protected:
  explicit TaggedEncoder(typename Sink::State initial)
      : state_(std::move(initial)) {}

  typename Sink::State state_;
  int open_sections_ = 0;

 private:
  /// The tag byte, then the low `n` bytes of `v`, little-endian.
  void value(Tag tag, std::uint64_t v, int n) {
    char bytes[9] = {static_cast<char>(tag)};
    for (int i = 0; i < n; ++i) {
      bytes[1 + i] = static_cast<char>((v >> (8 * i)) & 0xffu);
    }
    Sink::put(state_, std::string_view(bytes, 1 + n));
  }
};

/// Serializes tagged values into an in-memory byte string: the header
/// (magic + version), then the TaggedEncoder stream.
class StateWriter : public TaggedEncoder<ByteStringSink> {
 public:
  StateWriter();

  const std::string& data() const { return state_; }

  /// Atomic write: the bytes land in `path + ".tmp"` and are renamed into
  /// place, so a crash mid-write never leaves a truncated snapshot under
  /// the final name. Throws std::runtime_error on I/O failure.
  void write_file(const std::string& path) const;
};

/// Consumes a StateWriter stream with per-value type checking. Every
/// mismatch (wrong tag, wrong section name, truncation, unknown version)
/// throws std::runtime_error naming the byte offset and what was expected.
// snap:transient(codec machinery, not simulated run state)
class StateReader {
 public:
  /// Validates magic and version. Rejects any version other than
  /// kCodecVersion: snapshots are not forward- or backward-compatible.
  explicit StateReader(std::string data);

  /// Reads the whole file into memory. Throws std::runtime_error when the
  /// file is unreadable or fails header validation.
  static StateReader from_file(const std::string& path);

  std::uint32_t version() const { return version_; }

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  bool boolean();
  std::string str();
  void begin_section(std::string_view expected);
  void end_section();

  /// True once every byte has been consumed (well-formed stream end).
  bool at_end() const { return pos_ >= data_.size(); }

 private:
  Tag take_tag(Tag expected);
  std::uint32_t raw_u32();
  std::uint64_t raw_u64();
  [[noreturn]] void fail(const std::string& what) const;

  std::string data_;
  std::size_t pos_ = 0;
  std::uint32_t version_ = 0;
};

/// Renders any codec stream as indented JSON for inspection: sections
/// become {"section": name, "items": [...]} objects, scalars their plain
/// JSON values. Throws std::runtime_error on malformed input.
std::string debug_dump(const std::string& data);

/// Writes `data` to `path` via a same-directory ".tmp" file and an atomic
/// rename. Throws std::runtime_error on I/O failure.
void write_file_atomic(const std::string& path, const std::string& data);

/// Reads a whole file as bytes. Throws std::runtime_error when unreadable.
std::string read_file(const std::string& path);

}  // namespace imobif::snap
