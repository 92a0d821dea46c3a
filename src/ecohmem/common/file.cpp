#include "ecohmem/common/file.hpp"

#include <fstream>

namespace ecohmem::common {

Status write_file(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return unexpected("cannot open for writing: " + path);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  out.close();
  if (out.fail()) return unexpected("write failed: " + path);
  return {};
}

}  // namespace ecohmem::common
