#include "snap/codec.hpp"

#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace imobif::snap {

namespace {
constexpr char kMagic[4] = {'I', 'M', 'S', 'N'};
constexpr std::size_t kHeaderBytes = 8;  // magic + u32 version
}  // namespace

const char* to_string(Tag tag) {
  switch (tag) {
    case Tag::kU8:
      return "u8";
    case Tag::kU32:
      return "u32";
    case Tag::kU64:
      return "u64";
    case Tag::kI64:
      return "i64";
    case Tag::kF64:
      return "f64";
    case Tag::kBool:
      return "bool";
    case Tag::kString:
      return "string";
    case Tag::kSectionBegin:
      return "section-begin";
    case Tag::kSectionEnd:
      return "section-end";
  }
  return "?";
}

// --- StateWriter ---

StateWriter::StateWriter()
    : TaggedEncoder(std::string(kMagic, sizeof(kMagic))) {
  for (int i = 0; i < 4; ++i) {
    state_.push_back(static_cast<char>((kCodecVersion >> (8 * i)) & 0xffu));
  }
}

void StateWriter::write_file(const std::string& path) const {
  if (open_sections_ != 0) {
    throw std::logic_error("StateWriter: writing with an unclosed section");
  }
  write_file_atomic(path, state_);
}

void write_file_atomic(const std::string& path, const std::string& data) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("snapshot: cannot open '" + tmp +
                               "' for writing");
    }
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
    out.flush();
    if (!out) {
      throw std::runtime_error("snapshot: short write to '" + tmp + "'");
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw std::runtime_error("snapshot: rename '" + tmp + "' -> '" + path +
                             "' failed: " + ec.message());
  }
}

// --- StateReader ---

StateReader::StateReader(std::string data) : data_(std::move(data)) {
  if (data_.size() < kHeaderBytes ||
      data_.compare(0, sizeof(kMagic), kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error(
        "snapshot: bad magic — not an IMSN snapshot stream");
  }
  pos_ = sizeof(kMagic);
  version_ = raw_u32();
  if (version_ != kCodecVersion) {
    throw std::runtime_error(
        "snapshot: unsupported codec version " + std::to_string(version_) +
        " (this build reads version " + std::to_string(kCodecVersion) +
        "); the snapshot was written by a different build");
  }
}

StateReader StateReader::from_file(const std::string& path) {
  return StateReader(read_file(path));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("snapshot: cannot open '" + path + "'");
  }
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void StateReader::fail(const std::string& what) const {
  throw std::runtime_error("snapshot: " + what + " at byte offset " +
                           std::to_string(pos_));
}

Tag StateReader::take_tag(Tag expected) {
  if (pos_ >= data_.size()) {
    fail(std::string("truncated stream, expected ") + to_string(expected));
  }
  const Tag got = static_cast<Tag>(static_cast<std::uint8_t>(data_[pos_]));
  if (got != expected) {
    fail(std::string("expected ") + to_string(expected) + ", found " +
         to_string(got));
  }
  ++pos_;
  return got;
}

std::uint32_t StateReader::raw_u32() {
  if (pos_ + 4 > data_.size()) fail("truncated u32");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t StateReader::raw_u64() {
  if (pos_ + 8 > data_.size()) fail("truncated u64");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

std::uint8_t StateReader::u8() {
  take_tag(Tag::kU8);
  if (pos_ >= data_.size()) fail("truncated u8");
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint32_t StateReader::u32() {
  take_tag(Tag::kU32);
  return raw_u32();
}

std::uint64_t StateReader::u64() {
  take_tag(Tag::kU64);
  return raw_u64();
}

std::int64_t StateReader::i64() {
  take_tag(Tag::kI64);
  return static_cast<std::int64_t>(raw_u64());
}

double StateReader::f64() {
  take_tag(Tag::kF64);
  return std::bit_cast<double>(raw_u64());
}

bool StateReader::boolean() {
  take_tag(Tag::kBool);
  if (pos_ >= data_.size()) fail("truncated bool");
  return data_[pos_++] != '\x00';
}

std::string StateReader::str() {
  take_tag(Tag::kString);
  const std::uint32_t len = raw_u32();
  if (pos_ + len > data_.size()) fail("truncated string body");
  std::string out = data_.substr(pos_, len);
  pos_ += len;
  return out;
}

void StateReader::begin_section(std::string_view expected) {
  take_tag(Tag::kSectionBegin);
  const std::uint32_t len = raw_u32();
  if (pos_ + len > data_.size()) fail("truncated section name");
  const std::string_view name(data_.data() + pos_, len);
  if (name != expected) {
    fail("expected section '" + std::string(expected) + "', found '" +
         std::string(name) + "'");
  }
  pos_ += len;
}

void StateReader::end_section() { take_tag(Tag::kSectionEnd); }

// --- debug_dump ---

std::string debug_dump(const std::string& data) {
  StateReader probe(data);  // validates magic + version
  // Re-walk the raw stream with a private cursor: the typed StateReader
  // API intentionally has no "peek next tag", so the dump decodes by hand.
  std::size_t pos = kHeaderBytes;
  const auto need = [&](std::size_t n) {
    if (pos + n > data.size()) {
      throw std::runtime_error("snapshot: truncated stream at byte offset " +
                               std::to_string(pos));
    }
  };
  const auto read_u32 = [&] {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(data[pos + i]))
           << (8 * i);
    }
    pos += 4;
    return v;
  };
  const auto read_u64 = [&] {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(data[pos + i]))
           << (8 * i);
    }
    pos += 8;
    return v;
  };

  util::Json root = util::Json::object();
  root.set("codec_version", util::Json(static_cast<std::uint64_t>(
                                probe.version())));
  // Stack of open item lists; sections push a child list.
  std::vector<util::Json> stack;
  std::vector<std::string> names;
  stack.push_back(util::Json::array());
  while (pos < data.size()) {
    const Tag tag = static_cast<Tag>(static_cast<std::uint8_t>(data[pos++]));
    switch (tag) {
      case Tag::kU8:
        need(1);
        stack.back().push_back(util::Json(
            static_cast<std::uint64_t>(static_cast<std::uint8_t>(data[pos]))));
        ++pos;
        break;
      case Tag::kU32:
        stack.back().push_back(
            util::Json(static_cast<std::uint64_t>(read_u32())));
        break;
      case Tag::kU64:
        stack.back().push_back(util::Json(read_u64()));
        break;
      case Tag::kI64:
        stack.back().push_back(
            util::Json(static_cast<std::int64_t>(read_u64())));
        break;
      case Tag::kF64:
        stack.back().push_back(util::Json(std::bit_cast<double>(read_u64())));
        break;
      case Tag::kBool:
        need(1);
        stack.back().push_back(util::Json(data[pos] != '\x00'));
        ++pos;
        break;
      case Tag::kString: {
        const std::uint32_t len = read_u32();
        need(len);
        stack.back().push_back(util::Json(data.substr(pos, len)));
        pos += len;
        break;
      }
      case Tag::kSectionBegin: {
        const std::uint32_t len = read_u32();
        need(len);
        names.push_back(data.substr(pos, len));
        pos += len;
        stack.push_back(util::Json::array());
        break;
      }
      case Tag::kSectionEnd: {
        if (stack.size() < 2) {
          throw std::runtime_error(
              "snapshot: section-end without a matching begin at byte "
              "offset " +
              std::to_string(pos - 1));
        }
        util::Json section = util::Json::object();
        section.set("section", util::Json(names.back()));
        section.set("items", std::move(stack.back()));
        names.pop_back();
        stack.pop_back();
        stack.back().push_back(std::move(section));
        break;
      }
      default:
        throw std::runtime_error("snapshot: unknown tag byte " +
                                 std::to_string(static_cast<int>(tag)) +
                                 " at byte offset " + std::to_string(pos - 1));
    }
  }
  if (stack.size() != 1) {
    throw std::runtime_error("snapshot: unterminated section '" +
                             names.back() + "'");
  }
  root.set("items", std::move(stack.back()));
  return root.dump(2) + "\n";
}

}  // namespace imobif::snap
