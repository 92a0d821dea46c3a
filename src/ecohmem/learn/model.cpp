#include "ecohmem/learn/model.hpp"

#include <cstring>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "ecohmem/common/file.hpp"
#include "ecohmem/common/strings.hpp"

namespace ecohmem::learn {

namespace {

/// Sanity cap on corpus name lengths, matching the trace codec's string cap.
constexpr std::uint32_t kMaxNameBytes = 1u << 20;
/// Sanity cap on corpus entry count.
constexpr std::uint32_t kMaxCorpusEntries = 1u << 16;

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

template <typename T>
void put(std::string& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// Bounded cursor over the model bytes; offsets are absolute file offsets.
class Cursor {
 public:
  explicit Cursor(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] std::uint64_t offset() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }

  bool read(void* out, std::size_t n) {
    if (n > remaining()) return false;
    std::memcpy(out, bytes_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  template <typename T>
  bool get(T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    return read(&v, sizeof(v));
  }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

Unexpected truncated_at(const char* what, std::uint64_t offset) {
  return unexpected(std::string(what) + " at offset " + std::to_string(offset));
}

}  // namespace

std::string encode_model(const Model& model) {
  std::string out;
  out.append(kModelMagic, sizeof(kModelMagic));
  put(out, kModelVersion);
  put(out, model.schema_hash);
  put(out, static_cast<std::uint32_t>(kFeatureCount));
  put(out, static_cast<std::uint32_t>(model.corpus.size()));
  for (const auto& name : model.corpus) {
    put(out, static_cast<std::uint32_t>(name.size()));
    out.append(name);
  }
  for (const double w : model.weights) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &w, sizeof(bits));
    put(out, bits);
  }
  put(out, fnv1a(out));
  return out;
}

Expected<Model> decode_model(std::string_view bytes) {
  Cursor c(bytes);
  char magic[8];
  if (!c.read(magic, sizeof(magic)) ||
      std::memcmp(magic, kModelMagic, sizeof(kModelMagic)) != 0) {
    return unexpected("not an ecoHMEM model (bad magic)");
  }

  std::uint32_t version = 0;
  if (!c.get(version)) return truncated_at("truncated model header", c.offset());
  if (version != kModelVersion) {
    return unexpected("unsupported model version " + std::to_string(version) +
                      " (this build reads version " + std::to_string(kModelVersion) + ")");
  }

  Model model;
  if (!c.get(model.schema_hash)) {
    return truncated_at("truncated model header", c.offset());
  }
  if (model.schema_hash != feature_schema_hash()) {
    return unexpected("model feature schema hash " + strings::to_hex(model.schema_hash) +
                      " does not match this build's schema " +
                      strings::to_hex(feature_schema_hash()) +
                      " (retrain with ecohmem-train)");
  }

  std::uint32_t feature_count = 0;
  if (!c.get(feature_count)) return truncated_at("truncated model header", c.offset());
  if (feature_count != kFeatureCount) {
    return unexpected("model declares " + std::to_string(feature_count) +
                      " features but this build's schema has " +
                      std::to_string(kFeatureCount) + " at offset 20");
  }

  std::uint32_t corpus_count = 0;
  if (!c.get(corpus_count)) return truncated_at("truncated corpus table", c.offset());
  if (corpus_count > kMaxCorpusEntries) {
    return truncated_at("corrupt corpus table (implausible entry count)", c.offset() - 4);
  }
  model.corpus.reserve(corpus_count);
  for (std::uint32_t i = 0; i < corpus_count; ++i) {
    std::uint32_t len = 0;
    if (!c.get(len)) return truncated_at("truncated corpus table", c.offset());
    if (len > kMaxNameBytes || len > c.remaining()) {
      return truncated_at("truncated corpus name", c.offset());
    }
    std::string name(len, '\0');
    if (len > 0 && !c.read(name.data(), len)) {
      return truncated_at("truncated corpus name", c.offset());
    }
    model.corpus.push_back(std::move(name));
  }

  for (std::size_t i = 0; i < kFeatureCount; ++i) {
    std::uint64_t bits = 0;
    if (!c.get(bits)) return truncated_at("truncated weight vector", c.offset());
    std::memcpy(&model.weights[i], &bits, sizeof(bits));
  }

  const std::uint64_t payload_end = c.offset();
  std::uint64_t stored_checksum = 0;
  if (!c.get(stored_checksum)) return truncated_at("truncated model checksum", c.offset());
  const std::uint64_t computed =
      fnv1a(bytes.substr(0, static_cast<std::size_t>(payload_end)));
  if (stored_checksum != computed) {
    return unexpected("model checksum mismatch at offset " + std::to_string(payload_end) +
                      " (stored " + strings::to_hex(stored_checksum) + ", computed " +
                      strings::to_hex(computed) + ")");
  }
  if (c.remaining() != 0) {
    return unexpected("model has " + std::to_string(c.remaining()) +
                      " trailing bytes at offset " + std::to_string(c.offset()));
  }
  return model;
}

Status save_model(const Model& model, const std::string& path) {
  return common::write_file(path, encode_model(model));
}

Expected<Model> load_model(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return unexpected("cannot open model file " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return unexpected("read failed for model file " + path);
  return decode_model(buf.str());
}

std::string model_content_hash(const Model& model) {
  return strings::to_hex(fnv1a(encode_model(model)));
}

}  // namespace ecohmem::learn
