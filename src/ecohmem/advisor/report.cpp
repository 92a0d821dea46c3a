#include "ecohmem/advisor/report.hpp"

#include "ecohmem/common/file.hpp"
#include "ecohmem/common/strings.hpp"

namespace ecohmem::advisor {

std::string to_string(ReportFormat fmt) {
  return fmt == ReportFormat::kBom ? "bom" : "human-readable";
}

Status write_report(std::string& out, const Placement& placement, ReportFormat format,
                    const bom::ModuleTable& modules, const bom::SymbolTable* symbols) {
  // Roughly the report's size: ~32 bytes per frame, ~40 per line besides.
  std::size_t frames = 0;
  for (const auto& d : placement.decisions) frames += d.callstack.frames.size();
  out.reserve(out.size() + 128 + 40 * placement.decisions.size() + 32 * frames);

  out += "# ecoHMEM placement report\n# format = ";
  out += to_string(format);
  out += "\n# fallback = ";
  out += placement.fallback_tier;
  out += '\n';
  // Unknown header keys are ignored by every report consumer, so the
  // model stamp is byte-invisible to pre-learn parsers.
  if (!placement.model_stamp.empty()) {
    out += "# model = ";
    out += placement.model_stamp;
    out += '\n';
  }

  for (const auto& d : placement.decisions) {
    if (format == ReportFormat::kBom) {
      bom::append_bom(out, d.callstack, modules);
    } else {
      if (symbols == nullptr) {
        return unexpected("human-readable report requires a symbol table");
      }
      auto hr = symbols->translate(d.callstack);
      if (!hr) return unexpected("cannot symbolize call stack: " + hr.error());
      bom::append_human(out, *hr);
    }
    out += " @ ";
    out += d.tier;
    out += " # size=";
    strings::append_u64(out, d.footprint);
    out += '\n';
  }
  return {};
}

Expected<std::string> report_to_string(const Placement& placement, ReportFormat format,
                                       const bom::ModuleTable& modules,
                                       const bom::SymbolTable* symbols) {
  std::string out;
  if (Status s = write_report(out, placement, format, modules, symbols); !s) {
    return unexpected(s.error());
  }
  return out;
}

Status save_report(const std::string& path, const Placement& placement, ReportFormat format,
                   const bom::ModuleTable& modules, const bom::SymbolTable* symbols) {
  auto text = report_to_string(placement, format, modules, symbols);
  if (!text) return unexpected(text.error());
  return common::write_file(path, *text);
}

}  // namespace ecohmem::advisor
