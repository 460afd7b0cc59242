// File naming inside a DB directory:
//   CURRENT            -> name of the live manifest
//   MANIFEST-<num>     -> version-edit log
//   <num>.log          -> WAL
//   <num>.ldb          -> SSTable
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace lo::storage {

enum class FileKind { kCurrent, kManifest, kWal, kTable, kUnknown };

std::string CurrentFileName(const std::string& dbname);
std::string ManifestFileName(const std::string& dbname, uint64_t number);
std::string WalFileName(const std::string& dbname, uint64_t number);
std::string TableFileName(const std::string& dbname, uint64_t number);

/// Parses a file *name* (no directory); number is set for numbered kinds.
FileKind ParseFileName(std::string_view name, uint64_t* number);

}  // namespace lo::storage
