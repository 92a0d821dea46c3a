#pragma once

/// \file file.hpp
/// Whole-file output for the tools' artifacts (reports, site CSVs,
/// timelines, models, served reports).

#include <string>
#include <string_view>

#include "ecohmem/common/expected.hpp"

namespace ecohmem::common {

/// Writes `bytes` to `path` (created or truncated), then flushes and
/// closes it. Fails if any step fails, so a full disk or an I/O error
/// is reported here instead of being lost when the stream is destroyed.
[[nodiscard]] Status write_file(const std::string& path, std::string_view bytes);

}  // namespace ecohmem::common
