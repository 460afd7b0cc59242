#include "storage/filename.h"

#include <cinttypes>
#include <cstdio>

namespace lo::storage {
namespace {

std::string NumberedName(const std::string& dbname, uint64_t number,
                         const char* suffix) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "/%06" PRIu64 "%s", number, suffix);
  return dbname + buf;
}

}  // namespace

std::string CurrentFileName(const std::string& dbname) { return dbname + "/CURRENT"; }

std::string ManifestFileName(const std::string& dbname, uint64_t number) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "/MANIFEST-%06" PRIu64, number);
  return dbname + buf;
}

std::string WalFileName(const std::string& dbname, uint64_t number) {
  return NumberedName(dbname, number, ".log");
}

std::string TableFileName(const std::string& dbname, uint64_t number) {
  return NumberedName(dbname, number, ".ldb");
}

FileKind ParseFileName(std::string_view name, uint64_t* number) {
  if (name == "CURRENT") return FileKind::kCurrent;
  if (name.rfind("MANIFEST-", 0) == 0) {
    *number = std::strtoull(std::string(name.substr(9)).c_str(), nullptr, 10);
    return FileKind::kManifest;
  }
  size_t dot = name.find('.');
  if (dot == std::string_view::npos) return FileKind::kUnknown;
  std::string digits(name.substr(0, dot));
  if (digits.empty() || digits.find_first_not_of("0123456789") != std::string::npos) {
    return FileKind::kUnknown;
  }
  *number = std::strtoull(digits.c_str(), nullptr, 10);
  std::string_view suffix = name.substr(dot);
  if (suffix == ".log") return FileKind::kWal;
  if (suffix == ".ldb") return FileKind::kTable;
  return FileKind::kUnknown;
}

}  // namespace lo::storage
