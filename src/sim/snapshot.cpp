#include "sim/snapshot.hpp"

#include <array>
#include <cstring>

namespace atlantis::sim {
namespace {

// Slicing-by-8 tables for the reflected IEEE polynomial 0xEDB88320,
// built once. table[0] is the classic bytewise table; table[k][i] is the
// CRC of byte i followed by k zero bytes, so eight bytes fold in with
// eight independent lookups.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

const CrcTables& crc_tables() {
  static const CrcTables tables = [] {
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::size_t i = 0; i < 256; ++i) {
        const std::uint32_t prev = t[k - 1][i];
        t[k][i] = t[0][prev & 0xFFu] ^ (prev >> 8);
      }
    }
    return t;
  }();
  return tables;
}

void store_le(std::uint8_t* out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

std::uint64_t load_le(const std::uint8_t* in, int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  }
  return v;
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t len) {
  const CrcTables& t = crc_tables();
  std::uint32_t c = 0xFFFFFFFFu;
  for (; len >= 8; data += 8, len -= 8) {
    c = t[7][(c ^ data[0]) & 0xFFu] ^ t[6][((c >> 8) ^ data[1]) & 0xFFu] ^
        t[5][((c >> 16) ^ data[2]) & 0xFFu] ^ t[4][(c >> 24) ^ data[3]] ^
        t[3][data[4]] ^ t[2][data[5]] ^ t[1][data[6]] ^ t[0][data[7]];
  }
  for (; len > 0; ++data, --len) {
    c = t[0][(c ^ *data) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

SnapshotWriter::SnapshotWriter() : buf_(12) {
  // The 12-byte header is stored in place: magic, major, minor, and
  // four reserved bytes the constructor already zeroed.
  store_le(buf_.data(), kSnapshotMagic, 4);
  store_le(buf_.data() + 4, kSnapshotMajor, 2);
  store_le(buf_.data() + 6, kSnapshotMinor, 2);
}

void SnapshotWriter::raw(const void* p, std::size_t n) {
  const auto* bytes = static_cast<const std::uint8_t*>(p);
  buf_.insert(buf_.end(), bytes, bytes + n);
}

void SnapshotWriter::begin_section(const std::string& tag) {
  ATLANTIS_CHECK(!open_, "snapshot sections do not nest");
  ATLANTIS_CHECK(!tag.empty(), "snapshot section tag must be non-empty");
  open_ = true;
  frame_at_ = buf_.size();
  std::uint8_t len4[4];
  store_le(len4, tag.size(), 4);
  raw(len4, 4);
  raw(tag.data(), tag.size());
  len_at_ = buf_.size();
  std::uint8_t len8[8] = {};
  raw(len8, 8);  // payload length backpatched by end_section()
  payload_at_ = buf_.size();
}

void SnapshotWriter::end_section() {
  ATLANTIS_CHECK(open_, "end_section without begin_section");
  open_ = false;
  const std::size_t payload_len = buf_.size() - payload_at_;
  store_le(buf_.data() + len_at_, payload_len, 8);
  // The CRC covers the whole frame (tag length, tag, payload length,
  // payload), so tag corruption is as detectable as payload corruption.
  const std::uint32_t crc =
      crc32(buf_.data() + frame_at_, buf_.size() - frame_at_);
  std::uint8_t crc4[4];
  store_le(crc4, crc, 4);
  raw(crc4, 4);
}

void SnapshotWriter::put_u8(std::uint8_t v) {
  ATLANTIS_CHECK(open_, "snapshot put outside a section");
  buf_.push_back(v);
}

void SnapshotWriter::put_u16(std::uint16_t v) {
  ATLANTIS_CHECK(open_, "snapshot put outside a section");
  std::uint8_t b[2];
  store_le(b, v, 2);
  raw(b, 2);
}

void SnapshotWriter::put_u32(std::uint32_t v) {
  ATLANTIS_CHECK(open_, "snapshot put outside a section");
  std::uint8_t b[4];
  store_le(b, v, 4);
  raw(b, 4);
}

void SnapshotWriter::put_u64(std::uint64_t v) {
  ATLANTIS_CHECK(open_, "snapshot put outside a section");
  std::uint8_t b[8];
  store_le(b, v, 8);
  raw(b, 8);
}

void SnapshotWriter::put_i64(std::int64_t v) {
  put_u64(static_cast<std::uint64_t>(v));
}

void SnapshotWriter::put_f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(bits);
}

void SnapshotWriter::put_string(const std::string& s) {
  put_u32(static_cast<std::uint32_t>(s.size()));
  ATLANTIS_CHECK(open_, "snapshot put outside a section");
  raw(s.data(), s.size());
}

void SnapshotWriter::put_words(const std::vector<std::uint64_t>& words) {
  put_u64(words.size());
  for (const std::uint64_t w : words) put_u64(w);
}

void SnapshotWriter::put_bytes(const std::uint8_t* data, std::size_t len) {
  ATLANTIS_CHECK(open_, "snapshot put outside a section");
  raw(data, len);
}

const std::vector<std::uint8_t>& SnapshotWriter::bytes() const {
  ATLANTIS_CHECK(!open_, "snapshot stream read with a section still open");
  return buf_;
}

util::Result<SnapshotReader> SnapshotReader::open(
    std::vector<std::uint8_t> data) {
  using R = util::Result<SnapshotReader>;
  SnapshotReader r;
  r.data_ = std::move(data);
  const std::uint8_t* p = r.data_.data();
  const std::size_t n = r.data_.size();
  if (n < 12) {
    return R::failure(util::ErrorCode::kSnapshotCorrupt,
                      "snapshot shorter than its header");
  }
  if (load_le(p, 4) != kSnapshotMagic) {
    return R::failure(util::ErrorCode::kSnapshotCorrupt,
                      "bad snapshot magic");
  }
  r.major_ = static_cast<std::uint16_t>(load_le(p + 4, 2));
  r.minor_ = static_cast<std::uint16_t>(load_le(p + 6, 2));
  if (r.major_ != kSnapshotMajor) {
    return R::failure(util::ErrorCode::kSnapshotVersion,
                      "snapshot major version " + std::to_string(r.major_) +
                          " (this build reads " +
                          std::to_string(kSnapshotMajor) + ")");
  }
  std::size_t at = 12;
  while (at < n) {
    const std::size_t frame_at = at;
    if (n - at < 4) {
      return R::failure(util::ErrorCode::kSnapshotCorrupt,
                        "truncated section tag length");
    }
    const std::size_t tag_len = load_le(p + at, 4);
    at += 4;
    if (n - at < tag_len) {
      return R::failure(util::ErrorCode::kSnapshotCorrupt,
                        "truncated section tag");
    }
    std::string tag(reinterpret_cast<const char*>(p + at), tag_len);
    at += tag_len;
    if (n - at < 8) {
      return R::failure(util::ErrorCode::kSnapshotCorrupt,
                        "truncated section length");
    }
    const std::size_t payload_len = load_le(p + at, 8);
    at += 8;
    if (n - at < payload_len || n - at - payload_len < 4) {
      return R::failure(util::ErrorCode::kSnapshotCorrupt,
                        "truncated section '" + tag + "'");
    }
    const std::uint32_t want =
        static_cast<std::uint32_t>(load_le(p + at + payload_len, 4));
    if (crc32(p + frame_at, at - frame_at + payload_len) != want) {
      return R::failure(util::ErrorCode::kSnapshotCorrupt,
                        "CRC mismatch in section '" + tag + "'");
    }
    r.index_.try_emplace(tag, r.sections_.size());
    r.sections_.push_back(Section{std::move(tag), at, payload_len});
    at += payload_len + 4;
  }
  return R(std::move(r));
}

bool SnapshotReader::has_section(const std::string& tag) const {
  return index_.count(tag) != 0;
}

std::vector<std::string> SnapshotReader::section_tags() const {
  std::vector<std::string> tags;
  tags.reserve(sections_.size());
  for (const Section& s : sections_) tags.push_back(s.tag);
  return tags;
}

void SnapshotReader::select(const std::string& tag) {
  if (!try_select(tag)) {
    throw util::StateError("snapshot has no section '" + tag + "'");
  }
}

bool SnapshotReader::try_select(const std::string& tag) {
  const auto it = index_.find(tag);
  if (it == index_.end()) return false;
  select_index(it->second);
  return true;
}

void SnapshotReader::select_index(std::size_t i) {
  ATLANTIS_CHECK(i < sections_.size(), "snapshot section index out of range");
  cursor_ = sections_[i].begin;
  end_ = cursor_ + sections_[i].len;
}

void SnapshotReader::need(std::size_t n) const {
  if (end_ - cursor_ < n) {
    throw util::Error("snapshot section overread");
  }
}

std::uint8_t SnapshotReader::get_u8() {
  need(1);
  return data_[cursor_++];
}

std::uint16_t SnapshotReader::get_u16() {
  need(2);
  const auto v = static_cast<std::uint16_t>(load_le(data_.data() + cursor_, 2));
  cursor_ += 2;
  return v;
}

std::uint32_t SnapshotReader::get_u32() {
  need(4);
  const auto v = static_cast<std::uint32_t>(load_le(data_.data() + cursor_, 4));
  cursor_ += 4;
  return v;
}

std::uint64_t SnapshotReader::get_u64() {
  need(8);
  const std::uint64_t v = load_le(data_.data() + cursor_, 8);
  cursor_ += 8;
  return v;
}

std::int64_t SnapshotReader::get_i64() {
  return static_cast<std::int64_t>(get_u64());
}

double SnapshotReader::get_f64() {
  const std::uint64_t bits = get_u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string SnapshotReader::get_string() {
  const std::uint32_t len = get_u32();
  need(len);
  std::string s(reinterpret_cast<const char*>(data_.data() + cursor_), len);
  cursor_ += len;
  return s;
}

std::vector<std::uint64_t> SnapshotReader::get_words() {
  const std::uint64_t count = get_u64();
  if (count > remaining() / 8) throw util::Error("snapshot section overread");
  std::vector<std::uint64_t> words(count);
  for (std::uint64_t i = 0; i < count; ++i) words[i] = get_u64();
  return words;
}

void SnapshotReader::get_bytes(std::uint8_t* out, std::size_t len) {
  need(len);
  std::memcpy(out, data_.data() + cursor_, len);
  cursor_ += len;
}

}  // namespace atlantis::sim
