#include "snap/codec.hpp"

#include <algorithm>
#include <cmath>
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

StateWriter::StateWriter(std::size_t reserve) {
  buf_.resize(std::max(reserve, kHeaderBytes));
  std::memcpy(claim(sizeof(kMagic)), kMagic, sizeof(kMagic));
  detail::store_le(claim(sizeof(kCodecVersion)), kCodecVersion);
}

void StateWriter::grow(std::size_t n) {
  buf_.resize(std::max(2 * buf_.size(), len_ + n));
}

void StateWriter::end_section() {
  if (open_sections_ <= 0) {
    throw std::logic_error("StateWriter: end_section without a begin");
  }
  *claim(1) = static_cast<char>(Tag::kSectionEnd);
  --open_sections_;
}

std::string StateWriter::take() && {
  buf_.resize(len_);
  len_ = 0;
  return std::move(buf_);
}

void StateWriter::write_file(const std::string& path) const {
  if (open_sections_ != 0) {
    throw std::logic_error("StateWriter: writing with an unclosed section");
  }
  write_file_atomic(path, data());
}

void write_file_atomic(const std::string& path, std::string_view data) {
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

StateReader::StateReader(std::string_view data) : data_(data) {
  if (data_.size() < kHeaderBytes ||
      data_.substr(0, sizeof(kMagic)) !=
          std::string_view(kMagic, sizeof(kMagic))) {
    throw std::runtime_error(
        "snapshot: bad magic — not an IMSN snapshot stream");
  }
  version_ = detail::load_le<std::uint32_t>(data_.data() + sizeof(kMagic));
  pos_ = kHeaderBytes;
  if (version_ != kCodecVersion) {
    throw std::runtime_error(
        "snapshot: unsupported codec version " + std::to_string(version_) +
        " (this build reads version " + std::to_string(kCodecVersion) +
        "); the snapshot was written by a different build");
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("snapshot: cannot open '" + path + "'");
  }
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

namespace {
[[noreturn]] void fail_at(std::size_t pos, const std::string& what) {
  throw std::runtime_error("snapshot: " + what + " at byte offset " +
                           std::to_string(pos));
}
}  // namespace

void StateReader::fail(const std::string& what) const { fail_at(pos_, what); }

void StateReader::fail_take(Tag expected) const {
  if (pos_ >= data_.size()) {
    fail(std::string("truncated stream, expected ") + to_string(expected));
  }
  const Tag got = static_cast<Tag>(static_cast<std::uint8_t>(data_[pos_]));
  if (got != expected) {
    fail(std::string("expected ") + to_string(expected) + ", found " +
         to_string(got));
  }
  // Right tag, short payload: the offset names the payload's first byte.
  fail_at(pos_ + 1, std::string("truncated ") + to_string(expected));
}

std::string_view StateReader::text(Tag tag) {
  const std::uint32_t len = take<std::uint32_t>(tag);
  if (data_.size() - pos_ < len) {
    fail(std::string("truncated ") + to_string(tag) + " body");
  }
  const std::string_view body = data_.substr(pos_, len);
  pos_ += len;
  return body;
}

void StateReader::begin_section(std::string_view expected) {
  const std::string_view name = text(Tag::kSectionBegin);
  if (name != expected) {
    fail_at(pos_ - name.size(), "expected section '" + std::string(expected) +
                                    "', found '" + std::string(name) + "'");
  }
}

std::uint64_t StateReader::count(std::size_t min_item_bytes) {
  const std::uint64_t n = u64();
  const std::size_t left = data_.size() - pos_;
  if (n > left / min_item_bytes) {
    fail("count " + std::to_string(n) + " exceeds the " +
         std::to_string(left) + " bytes left (" +
         std::to_string(min_item_bytes) + " or more per item)");
  }
  return n;
}

// --- debug_dump ---

std::string debug_dump(std::string_view data) {
  StateReader r(data);  // validates magic + version
  util::Json root = util::Json::object();
  root.set("codec_version",
           util::Json(static_cast<std::uint64_t>(r.version())));
  // Stack of open item lists; sections push a child list.
  std::vector<util::Json> stack(1, util::Json::array());
  std::vector<std::string> names;
  while (!r.at_end()) {
    const auto tag = static_cast<std::uint8_t>(r.data_[r.pos_]);
    util::Json item;
    switch (static_cast<Tag>(tag)) {
      case Tag::kU8:
        item = util::Json(static_cast<std::uint64_t>(r.u8()));
        break;
      case Tag::kU32:
        item = util::Json(static_cast<std::uint64_t>(r.u32()));
        break;
      case Tag::kU64:
        item = util::Json(r.u64());
        break;
      case Tag::kI64:
        item = util::Json(r.i64());
        break;
      case Tag::kF64: {
        // JSON has no NaN or infinity; the codec carries them bit-exactly.
        const double v = r.f64();
        item = std::isfinite(v) ? util::Json(v)
               : std::isnan(v)  ? util::Json("nan")
               : v > 0          ? util::Json("inf")
                                : util::Json("-inf");
        break;
      }
      case Tag::kBool:
        item = util::Json(r.boolean());
        break;
      case Tag::kString:
        item = util::Json(r.str());
        break;
      case Tag::kSectionBegin:
        names.emplace_back(r.text(Tag::kSectionBegin));
        stack.push_back(util::Json::array());
        continue;
      case Tag::kSectionEnd:
        if (stack.size() < 2) r.fail("section-end without a matching begin");
        r.end_section();
        item = util::Json::object();
        item.set("section", util::Json(names.back()));
        item.set("items", std::move(stack.back()));
        names.pop_back();
        stack.pop_back();
        break;
      default:
        r.fail("unknown tag byte " + std::to_string(tag));
    }
    stack.back().push_back(std::move(item));
  }
  if (stack.size() != 1) {
    throw std::runtime_error("snapshot: unterminated section '" +
                             names.back() + "'");
  }
  root.set("items", std::move(stack.back()));
  return root.dump(2) + "\n";
}

}  // namespace imobif::snap
