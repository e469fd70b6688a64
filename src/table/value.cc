#include "table/value.h"

#include <cmath>

#include "common/string_util.h"

namespace d3l {

const char* ColumnTypeToString(ColumnType t) {
  switch (t) {
    case ColumnType::kString:
      return "string";
    case ColumnType::kNumeric:
      return "numeric";
  }
  return "?";
}

bool IsNullCell(std::string_view cell) {
  std::string_view t = TrimView(cell);
  if (t.empty()) return true;
  if (t == "-" || t == "--" || t == "?") return true;
  if (t.size() <= 4) {
    std::string lower = ToLower(t);
    if (lower == "na" || lower == "n/a" || lower == "null" || lower == "none" ||
        lower == "nan") {
      return true;
    }
  }
  return false;
}

std::optional<double> CellAsNumber(std::string_view cell) {
  if (IsNullCell(cell)) return std::nullopt;
  std::optional<double> v = ParseDouble(cell);
  // Every NaN spelling ("-nan", "nan(123)", "NaN(1)") is a missing value:
  // a NaN in a numeric sample has no place in its order (stats/ks.h).
  if (v && std::isnan(*v)) return std::nullopt;
  return v;
}

}  // namespace d3l
