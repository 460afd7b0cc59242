// MiniLSM tests: WAL, memtable, blocks, bloom, SSTables, versions, and
// the DB facade (recovery, snapshots, iterators, compaction), plus a
// randomized model check against std::map with crash/reopen injection.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
#include "storage/bloom.h"
#include "storage/block.h"
#include "storage/db.h"
#include "storage/dbformat.h"
#include "storage/env.h"
#include "storage/faulty_env.h"
#include "storage/filename.h"
#include "storage/group_commit.h"
#include "storage/memtable.h"
#include "storage/sstable.h"
#include "storage/wal.h"
#include "storage/write_batch.h"
#include "slow_wal_sync_env.h"

namespace lo::storage {
namespace {

// ------------------------------------------------------------------- Env

TEST(MemEnv, WriteReadRoundTrip) {
  MemEnv env;
  ASSERT_TRUE(env.WriteStringToFile("/f", "hello", true).ok());
  auto got = env.ReadFileToString("/f");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "hello");
  EXPECT_TRUE(env.FileExists("/f"));
  EXPECT_EQ(*env.FileSize("/f"), 5u);
}

TEST(MemEnv, DeleteKeepsOpenHandlesAlive) {
  MemEnv env;
  ASSERT_TRUE(env.WriteStringToFile("/f", "payload", true).ok());
  auto file = env.NewRandomAccessFile("/f");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(env.DeleteFile("/f").ok());
  EXPECT_FALSE(env.FileExists("/f"));
  std::string out;
  ASSERT_TRUE((*file)->Read(0, 7, &out).ok());
  EXPECT_EQ(out, "payload");  // unlink semantics
}

TEST(MemEnv, RenameReplaces) {
  MemEnv env;
  ASSERT_TRUE(env.WriteStringToFile("/a", "one", true).ok());
  ASSERT_TRUE(env.WriteStringToFile("/b", "two", true).ok());
  ASSERT_TRUE(env.RenameFile("/a", "/b").ok());
  EXPECT_FALSE(env.FileExists("/a"));
  EXPECT_EQ(*env.ReadFileToString("/b"), "one");
}

TEST(MemEnv, ListDirReturnsDirectChildrenOnly) {
  MemEnv env;
  ASSERT_TRUE(env.WriteStringToFile("/db/a", "x", true).ok());
  ASSERT_TRUE(env.WriteStringToFile("/db/b", "x", true).ok());
  ASSERT_TRUE(env.WriteStringToFile("/db/sub/c", "x", true).ok());
  ASSERT_TRUE(env.WriteStringToFile("/other/d", "x", true).ok());
  auto names = env.ListDir("/db");
  ASSERT_TRUE(names.ok());
  std::sort(names->begin(), names->end());
  EXPECT_EQ(*names, (std::vector<std::string>{"a", "b"}));
}

TEST(MemEnv, DropUnsyncedDataTruncatesToSyncPoint) {
  MemEnv env;
  auto file = env.NewWritableFile("/f");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("synced").ok());
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE((*file)->Append("lost").ok());
  env.DropUnsyncedData();
  EXPECT_EQ(*env.ReadFileToString("/f"), "synced");
}


TEST(PosixEnvTest, RealFilesystemRoundTrip) {
  PosixEnv env;
  std::string dir = "/tmp/lo_posix_env_test";
  ASSERT_TRUE(env.CreateDir(dir).ok());
  std::string path = dir + "/file";
  ASSERT_TRUE(env.WriteStringToFile(path, "posix-data", true).ok());
  EXPECT_TRUE(env.FileExists(path));
  EXPECT_EQ(*env.FileSize(path), 10u);
  EXPECT_EQ(*env.ReadFileToString(path), "posix-data");
  // Positional reads.
  auto file = env.NewRandomAccessFile(path);
  ASSERT_TRUE(file.ok());
  std::string out;
  ASSERT_TRUE((*file)->Read(6, 4, &out).ok());
  EXPECT_EQ(out, "data");
  // Rename + list + delete.
  ASSERT_TRUE(env.RenameFile(path, dir + "/renamed").ok());
  auto names = env.ListDir(dir);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->size(), 1u);
  EXPECT_EQ((*names)[0], "renamed");
  ASSERT_TRUE(env.DeleteFile(dir + "/renamed").ok());
  EXPECT_FALSE(env.FileExists(dir + "/renamed"));
}

TEST(PosixEnvTest, WholeDbOnRealFilesystem) {
  // MiniLSM end-to-end on the real filesystem (examples/tools use this).
  PosixEnv env;
  std::string dir = "/tmp/lo_posix_db_test";
  (void)env.CreateDir(dir);
  // Clean leftovers from previous runs.
  if (auto names = env.ListDir(dir); names.ok()) {
    for (const auto& name : *names) (void)env.DeleteFile(dir + "/" + name);
  }
  Options options;
  options.env = &env;
  {
    auto db = DB::Open(options, dir);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->Put({}, "persist", "on-disk").ok());
  }
  auto db = DB::Open(options, dir);
  ASSERT_TRUE(db.ok());
  auto got = (*db)->Get({}, "persist");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "on-disk");
}

TEST(PosixEnvTest, RandomAccessReadsAreThreadSafe) {
  // Eight threads read random windows of one file through one handle,
  // as a lane's Get and a background compaction read one table. A shared
  // file offset (seek, then read) hands threads each other's bytes.
  PosixEnv env;
  std::string dir = ::testing::TempDir() + "lo_posix_pread_" + std::to_string(::getpid());
  ASSERT_TRUE(env.CreateDir(dir).ok());
  std::string path = dir + "/patterned";
  constexpr size_t kFileBytes = 1 << 20;
  constexpr size_t kWindow = 4096;
  std::string data;
  for (uint64_t i = 0; data.size() < kFileBytes; i++) PutFixed64(&data, i * 0x9E3779B97F4A7C15ull);
  ASSERT_TRUE(env.WriteStringToFile(path, data, /*sync=*/true).ok());
  auto opened = env.NewRandomAccessFile(path);
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<RandomAccessFile> file = std::move(*opened);
  ASSERT_EQ(file->Size(), kFileBytes);

  constexpr int kThreads = 8;
  constexpr int kReadsPerThread = 20000;
  std::atomic<int> wrong{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; t++) {
    readers.emplace_back([&, t] {
      Rng rng(100 + static_cast<uint64_t>(t));
      std::string out;
      for (int i = 0; i < kReadsPerThread; i++) {
        uint64_t offset = rng.Uniform(kFileBytes - kWindow + 1);
        Status s = file->Read(offset, kWindow, &out);
        if (!s.ok() || std::string_view(out) != std::string_view(data).substr(offset, kWindow)) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& r : readers) r.join();
  EXPECT_EQ(wrong.load(), 0) << "of " << kThreads * kReadsPerThread << " windows";
  // A read past the end is short, not an error.
  std::string tail;
  ASSERT_TRUE(file->Read(kFileBytes - 10, kWindow, &tail).ok());
  EXPECT_EQ(tail, data.substr(kFileBytes - 10));
  file.reset();
  EXPECT_TRUE(env.DeleteFile(path).ok());
  std::error_code ec;
  std::filesystem::remove(dir, ec);
}

// ------------------------------------------------------------------- WAL

TEST(Wal, SmallRecordsRoundTrip) {
  MemEnv env;
  {
    wal::Writer writer(std::move(*env.NewWritableFile("/log")));
    ASSERT_TRUE(writer.AddRecord("one").ok());
    ASSERT_TRUE(writer.AddRecord("two").ok());
    ASSERT_TRUE(writer.AddRecord("").ok());  // empty record is legal
    ASSERT_TRUE(writer.Sync().ok());
  }
  wal::LogReader reader(std::move(*env.NewSequentialFile("/log")));
  std::string rec;
  ASSERT_TRUE(reader.ReadRecord(&rec));
  EXPECT_EQ(rec, "one");
  ASSERT_TRUE(reader.ReadRecord(&rec));
  EXPECT_EQ(rec, "two");
  ASSERT_TRUE(reader.ReadRecord(&rec));
  EXPECT_EQ(rec, "");
  EXPECT_FALSE(reader.ReadRecord(&rec));
  EXPECT_FALSE(reader.hit_corruption());
}

TEST(Wal, LargeRecordSpansBlocks) {
  MemEnv env;
  Rng rng(1);
  std::string big = rng.Bytes(100000);  // ~3 blocks
  {
    wal::Writer writer(std::move(*env.NewWritableFile("/log")));
    ASSERT_TRUE(writer.AddRecord(big).ok());
    ASSERT_TRUE(writer.AddRecord("tail").ok());
  }
  wal::LogReader reader(std::move(*env.NewSequentialFile("/log")));
  std::string rec;
  ASSERT_TRUE(reader.ReadRecord(&rec));
  EXPECT_EQ(rec, big);
  ASSERT_TRUE(reader.ReadRecord(&rec));
  EXPECT_EQ(rec, "tail");
}

TEST(Wal, ManySizesRoundTrip) {
  MemEnv env;
  Rng rng(2);
  std::vector<std::string> records;
  {
    wal::Writer writer(std::move(*env.NewWritableFile("/log")));
    for (int i = 0; i < 200; i++) {
      records.push_back(rng.Bytes(rng.Uniform(3000)));
      ASSERT_TRUE(writer.AddRecord(records.back()).ok());
    }
  }
  wal::LogReader reader(std::move(*env.NewSequentialFile("/log")));
  std::string rec;
  for (const auto& expected : records) {
    ASSERT_TRUE(reader.ReadRecord(&rec));
    ASSERT_EQ(rec, expected);
  }
  EXPECT_FALSE(reader.ReadRecord(&rec));
}

TEST(Wal, DetectsCorruptedRecord) {
  MemEnv env;
  {
    wal::Writer writer(std::move(*env.NewWritableFile("/log")));
    ASSERT_TRUE(writer.AddRecord("record-one").ok());
  }
  // Flip a payload byte.
  auto data = *env.ReadFileToString("/log");
  data[10] ^= 0x40;
  ASSERT_TRUE(env.WriteStringToFile("/log", data, true).ok());
  wal::LogReader reader(std::move(*env.NewSequentialFile("/log")));
  std::string rec;
  EXPECT_FALSE(reader.ReadRecord(&rec));
  EXPECT_TRUE(reader.hit_corruption());
}

TEST(Wal, TornTailStopsCleanly) {
  MemEnv env;
  {
    wal::Writer writer(std::move(*env.NewWritableFile("/log")));
    ASSERT_TRUE(writer.AddRecord("complete").ok());
    ASSERT_TRUE(writer.AddRecord(std::string(500, 'x')).ok());
  }
  auto data = *env.ReadFileToString("/log");
  data.resize(data.size() - 300);  // tear the second record
  ASSERT_TRUE(env.WriteStringToFile("/log", data, true).ok());
  wal::LogReader reader(std::move(*env.NewSequentialFile("/log")));
  std::string rec;
  ASSERT_TRUE(reader.ReadRecord(&rec));
  EXPECT_EQ(rec, "complete");
  EXPECT_FALSE(reader.ReadRecord(&rec));
}

// -------------------------------------------------------------- MemTable

TEST(MemTable, AddGetNewestVersionWins) {
  MemTable mem;
  mem.Add(1, ValueType::kValue, "k", "v1");
  mem.Add(2, ValueType::kValue, "k", "v2");
  std::string value;
  Status s;
  ASSERT_TRUE(mem.Get("k", kMaxSequenceNumber, &value, &s));
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(value, "v2");
  // Read at snapshot seq=1 sees the old version.
  ASSERT_TRUE(mem.Get("k", 1, &value, &s));
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(value, "v1");
}

TEST(MemTable, DeletionIsVisibleAsTombstone) {
  MemTable mem;
  mem.Add(1, ValueType::kValue, "k", "v");
  mem.Add(2, ValueType::kDeletion, "k", "");
  std::string value;
  Status s;
  ASSERT_TRUE(mem.Get("k", kMaxSequenceNumber, &value, &s));
  EXPECT_TRUE(s.IsNotFound());
}

TEST(MemTable, MissingKeyNotFoundInTable) {
  MemTable mem;
  mem.Add(1, ValueType::kValue, "aaa", "v");
  std::string value;
  Status s;
  EXPECT_FALSE(mem.Get("zzz", kMaxSequenceNumber, &value, &s));
  EXPECT_FALSE(mem.Get("aa", kMaxSequenceNumber, &value, &s));
}

TEST(MemTable, IteratorSortedByInternalKey) {
  MemTable mem;
  mem.Add(3, ValueType::kValue, "b", "b3");
  mem.Add(1, ValueType::kValue, "a", "a1");
  mem.Add(2, ValueType::kValue, "b", "b2");
  auto iter = mem.NewIterator();
  std::vector<std::pair<std::string, uint64_t>> seen;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    ParsedInternalKey parsed;
    ASSERT_TRUE(ParseInternalKey(iter->key(), &parsed));
    seen.emplace_back(std::string(parsed.user_key), parsed.sequence);
  }
  // user keys ascending, seq descending within a key.
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::pair<std::string, uint64_t>{"a", 1}));
  EXPECT_EQ(seen[1], (std::pair<std::string, uint64_t>{"b", 3}));
  EXPECT_EQ(seen[2], (std::pair<std::string, uint64_t>{"b", 2}));
}

TEST(MemTable, ManyEntriesStaySorted) {
  MemTable mem;
  Rng rng(5);
  for (int i = 0; i < 2000; i++) {
    mem.Add(static_cast<SequenceNumber>(i + 1), ValueType::kValue,
            "key" + std::to_string(rng.Uniform(500)), "v");
  }
  auto iter = mem.NewIterator();
  InternalKeyComparator icmp;
  std::string prev;
  int n = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    if (!prev.empty()) {
      ASSERT_LT(icmp.Compare(prev, iter->key()), 0);
    }
    prev.assign(iter->key());
    n++;
  }
  EXPECT_EQ(n, 2000);
}

// ----------------------------------------------------------------- Block

TEST(Block, BuildAndScan) {
  BlockBuilder builder(4);
  std::vector<std::pair<std::string, std::string>> entries;
  for (int i = 0; i < 50; i++) {
    char key[32];
    std::snprintf(key, sizeof(key), "key%04d", i);
    entries.emplace_back(MakeInternalKey(key, 1, ValueType::kValue),
                         "value" + std::to_string(i));
    builder.Add(entries.back().first, entries.back().second);
  }
  auto block = Block::Parse(std::string(builder.Finish()));
  ASSERT_TRUE(block.ok());
  InternalKeyComparator icmp;
  auto iter = (*block)->NewIterator(&icmp);
  size_t i = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), i++) {
    ASSERT_LT(i, entries.size());
    EXPECT_EQ(iter->key(), entries[i].first);
    EXPECT_EQ(iter->value(), entries[i].second);
  }
  EXPECT_EQ(i, entries.size());
}

TEST(Block, SeekLandsOnOrAfterTarget) {
  BlockBuilder builder(3);
  for (int i = 0; i < 100; i += 2) {  // even keys only
    char key[32];
    std::snprintf(key, sizeof(key), "k%04d", i);
    builder.Add(MakeInternalKey(key, 1, ValueType::kValue), std::to_string(i));
  }
  auto block = Block::Parse(std::string(builder.Finish()));
  ASSERT_TRUE(block.ok());
  InternalKeyComparator icmp;
  auto iter = (*block)->NewIterator(&icmp);
  // Seek to odd key 51 -> lands on 52.
  iter->Seek(MakeInternalKey("k0051", kMaxSequenceNumber, kValueTypeForSeek));
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(iter->value(), "52");
  // Seek past the end -> invalid.
  iter->Seek(MakeInternalKey("k9999", kMaxSequenceNumber, kValueTypeForSeek));
  EXPECT_FALSE(iter->Valid());
  // Seek before the start -> first entry.
  iter->Seek(MakeInternalKey("", kMaxSequenceNumber, kValueTypeForSeek));
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(iter->value(), "0");
}

TEST(Block, RejectsTruncated) {
  EXPECT_FALSE(Block::Parse("ab").ok());
  EXPECT_FALSE(Block::Parse(std::string("\0\0\0\0", 4)).ok());  // 0 restarts
}

// ----------------------------------------------------------------- Bloom

TEST(Bloom, NoFalseNegatives) {
  BloomFilterBuilder builder(10);
  std::vector<std::string> keys;
  for (int i = 0; i < 1000; i++) {
    keys.push_back("bloomkey" + std::to_string(i * 7));
    builder.AddKey(keys.back());
  }
  std::string filter = builder.Finish();
  for (const auto& key : keys) {
    EXPECT_TRUE(BloomFilterMayContain(filter, key)) << key;
  }
}

TEST(Bloom, LowFalsePositiveRate) {
  BloomFilterBuilder builder(10);
  for (int i = 0; i < 1000; i++) builder.AddKey("present" + std::to_string(i));
  std::string filter = builder.Finish();
  int fp = 0;
  constexpr int kProbes = 10000;
  for (int i = 0; i < kProbes; i++) {
    if (BloomFilterMayContain(filter, "absent" + std::to_string(i))) fp++;
  }
  EXPECT_LT(fp, kProbes * 0.03);  // ~1% expected at 10 bits/key
}

TEST(Bloom, EmptyOrMalformedFilterNeverRejects) {
  EXPECT_TRUE(BloomFilterMayContain("", "anything"));
  EXPECT_TRUE(BloomFilterMayContain("\x7f", "anything"));
}

// --------------------------------------------------------------- SSTable

class SSTableTest : public ::testing::Test {
 public:
  // Builds a table with keys k0000..k(n-1), value = "v<i>".
  void Build(int n, int step = 1) {
    TableBuilder builder(TableOptions{.block_size = 256},
                         std::move(*env_.NewWritableFile("/t.ldb")));
    for (int i = 0; i < n; i += step) {
      char key[32];
      std::snprintf(key, sizeof(key), "k%04d", i);
      builder.Add(MakeInternalKey(key, 1, ValueType::kValue),
                  "v" + std::to_string(i));
    }
    ASSERT_TRUE(builder.Finish().ok());
    auto file = env_.NewRandomAccessFile("/t.ldb");
    ASSERT_TRUE(file.ok());
    auto table = Table::Open(std::shared_ptr<RandomAccessFile>(std::move(*file)));
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    table_ = *table;
  }

  MemEnv env_;
  std::shared_ptr<Table> table_;
};

TEST_F(SSTableTest, FullScanSeesEveryEntry) {
  Build(500);
  auto iter = table_->NewIterator();
  int i = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), i++) {
    ParsedInternalKey parsed;
    ASSERT_TRUE(ParseInternalKey(iter->key(), &parsed));
    char key[32];
    std::snprintf(key, sizeof(key), "k%04d", i);
    EXPECT_EQ(parsed.user_key, key);
    EXPECT_EQ(iter->value(), "v" + std::to_string(i));
  }
  EXPECT_EQ(i, 500);
  EXPECT_TRUE(iter->status().ok());
}

TEST_F(SSTableTest, PointLookups) {
  Build(500, 2);  // even keys
  for (int probe : {0, 2, 250, 498}) {
    char key[32];
    std::snprintf(key, sizeof(key), "k%04d", probe);
    std::string lookup = MakeInternalKey(key, kMaxSequenceNumber, kValueTypeForSeek);
    bool found = false;
    ASSERT_TRUE(table_
                    ->InternalGet(lookup,
                                  [&](std::string_view ikey, std::string_view v) {
                                    ParsedInternalKey parsed;
                                    ASSERT_TRUE(ParseInternalKey(ikey, &parsed));
                                    if (parsed.user_key == key) {
                                      found = true;
                                      EXPECT_EQ(v, "v" + std::to_string(probe));
                                    }
                                  })
                    .ok());
    EXPECT_TRUE(found) << probe;
  }
  // Absent (odd) key must not produce a match.
  std::string lookup = MakeInternalKey("k0251", kMaxSequenceNumber, kValueTypeForSeek);
  bool wrong = false;
  ASSERT_TRUE(table_
                  ->InternalGet(lookup,
                                [&](std::string_view ikey, std::string_view) {
                                  ParsedInternalKey parsed;
                                  ASSERT_TRUE(ParseInternalKey(ikey, &parsed));
                                  if (parsed.user_key == "k0251") wrong = true;
                                })
                  .ok());
  EXPECT_FALSE(wrong);
}

TEST_F(SSTableTest, SeekAcrossBlocks) {
  Build(1000);
  auto iter = table_->NewIterator();
  iter->Seek(MakeInternalKey("k0500", kMaxSequenceNumber, kValueTypeForSeek));
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(iter->value(), "v500");
  // Continue scanning across block boundaries.
  for (int i = 501; i < 520; i++) {
    iter->Next();
    ASSERT_TRUE(iter->Valid());
    EXPECT_EQ(iter->value(), "v" + std::to_string(i));
  }
}

TEST_F(SSTableTest, CorruptBlockDetected) {
  Build(500);
  auto data = *env_.ReadFileToString("/t.ldb");
  data[100] ^= 0x01;  // flip a bit inside the first data block
  ASSERT_TRUE(env_.WriteStringToFile("/t.ldb", data, true).ok());
  auto file = env_.NewRandomAccessFile("/t.ldb");
  auto table = Table::Open(std::shared_ptr<RandomAccessFile>(std::move(*file)));
  ASSERT_TRUE(table.ok());  // metadata blocks are at the end, still intact
  std::string lookup = MakeInternalKey("k0000", kMaxSequenceNumber, kValueTypeForSeek);
  Status s = (*table)->InternalGet(lookup, [](std::string_view, std::string_view) {});
  EXPECT_TRUE(s.IsCorruption());
}

TEST_F(SSTableTest, OpenRejectsBadMagic) {
  Build(10);
  auto data = *env_.ReadFileToString("/t.ldb");
  data[data.size() - 1] ^= 0xff;
  ASSERT_TRUE(env_.WriteStringToFile("/t.ldb", data, true).ok());
  auto file = env_.NewRandomAccessFile("/t.ldb");
  auto table = Table::Open(std::shared_ptr<RandomAccessFile>(std::move(*file)));
  EXPECT_FALSE(table.ok());
  EXPECT_TRUE(table.status().IsCorruption());
}

// ------------------------------------------------------------ WriteBatch

TEST(WriteBatchTest, CountAndIterate) {
  WriteBatch batch;
  batch.Put("a", "1");
  batch.Delete("b");
  batch.Put("c", "3");
  EXPECT_EQ(batch.Count(), 3u);
  struct Collector : WriteBatch::Handler {
    std::vector<std::string> ops;
    void Put(std::string_view k, std::string_view v) override {
      ops.push_back("put:" + std::string(k) + "=" + std::string(v));
    }
    void Delete(std::string_view k) override {
      ops.push_back("del:" + std::string(k));
    }
  } collector;
  ASSERT_TRUE(batch.Iterate(&collector).ok());
  EXPECT_EQ(collector.ops,
            (std::vector<std::string>{"put:a=1", "del:b", "put:c=3"}));
}

TEST(WriteBatchTest, RepRoundTrip) {
  WriteBatch batch;
  batch.Put("key", "value");
  batch.Delete("gone");
  batch.SetSequence(1234);
  auto parsed = WriteBatch::FromRep(batch.rep());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Count(), 2u);
  EXPECT_EQ(parsed->sequence(), 1234u);
}

TEST(WriteBatchTest, FromRepRejectsGarbage) {
  EXPECT_FALSE(WriteBatch::FromRep("short").ok());
  std::string bad(12, '\0');
  bad[8] = 5;  // claims 5 records, has none
  EXPECT_FALSE(WriteBatch::FromRep(bad).ok());
}

TEST(WriteBatchTest, AppendMergesBatches) {
  WriteBatch a, b;
  a.Put("x", "1");
  b.Put("y", "2");
  b.Delete("z");
  a.Append(b);
  EXPECT_EQ(a.Count(), 3u);
}

// ----------------------------------------------------------------- DB

class DBTest : public ::testing::Test {
 public:
  DBTest() { Reopen(); }

  void Reopen() {
    db_.reset();
    Options options;
    options.env = &env_;
    options.write_buffer_size = write_buffer_size_;
    options.serialize_access = serialize_access_;
    auto db = DB::Open(options, "/db");
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
  }

  void Crash() {
    db_.reset();
    env_.DropUnsyncedData();
    Reopen();
  }

  std::string Get(std::string_view key) {
    auto r = db_->Get({}, key);
    return r.ok() ? *r : "(" + r.status().ToString() + ")";
  }

  MemEnv env_;
  size_t write_buffer_size_ = 1 << 20;
  bool serialize_access_ = false;
  std::unique_ptr<DB> db_;
};

TEST_F(DBTest, PutGetDelete) {
  ASSERT_TRUE(db_->Put({}, "k1", "v1").ok());
  EXPECT_EQ(Get("k1"), "v1");
  EXPECT_EQ(Get("missing"), "(NotFound)");
  ASSERT_TRUE(db_->Delete({}, "k1").ok());
  EXPECT_EQ(Get("k1"), "(NotFound)");
}

TEST_F(DBTest, OverwriteReturnsLatest) {
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(db_->Put({}, "k", "v" + std::to_string(i)).ok());
  }
  EXPECT_EQ(Get("k"), "v99");
}

TEST_F(DBTest, BatchIsAtomicallyVisible) {
  WriteBatch batch;
  batch.Put("a", "1");
  batch.Put("b", "2");
  batch.Delete("a");
  ASSERT_TRUE(db_->Write({}, &batch).ok());
  EXPECT_EQ(Get("a"), "(NotFound)");
  EXPECT_EQ(Get("b"), "2");
}

TEST_F(DBTest, SurvivesCleanReopen) {
  ASSERT_TRUE(db_->Put({}, "persist", "yes").ok());
  Reopen();
  EXPECT_EQ(Get("persist"), "yes");
}

TEST_F(DBTest, SurvivesCrashAfterSyncedWrites) {
  ASSERT_TRUE(db_->Put({.sync = true}, "durable", "1").ok());
  ASSERT_TRUE(db_->Put({.sync = true}, "durable2", "2").ok());
  Crash();
  EXPECT_EQ(Get("durable"), "1");
  EXPECT_EQ(Get("durable2"), "2");
}

TEST_F(DBTest, UnsyncedWritesMayVanishButPrefixSurvives) {
  ASSERT_TRUE(db_->Put({.sync = true}, "synced", "1").ok());
  ASSERT_TRUE(db_->Put({.sync = false}, "unsynced", "2").ok());
  Crash();
  EXPECT_EQ(Get("synced"), "1");
  EXPECT_EQ(Get("unsynced"), "(NotFound)");
}

TEST_F(DBTest, FlushAndCompactionPreserveData) {
  write_buffer_size_ = 4 << 10;  // tiny: force many flushes
  Reopen();
  Rng rng(3);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 3000; i++) {
    std::string key = "key" + std::to_string(rng.Uniform(400));
    std::string value = "val" + std::to_string(i);
    model[key] = value;
    ASSERT_TRUE(db_->Put({.sync = false}, key, value).ok());
  }
  auto stats = db_->GetStats();
  EXPECT_GT(stats.flushes, 0u);
  for (const auto& [key, value] : model) {
    ASSERT_EQ(Get(key), value) << key;
  }
}

TEST_F(DBTest, CompactAllMovesEverythingDown) {
  write_buffer_size_ = 4 << 10;
  Reopen();
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(db_->Put({.sync = false}, "k" + std::to_string(i),
                         std::string(50, 'v'))
                    .ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  auto stats = db_->GetStats();
  EXPECT_EQ(stats.files_per_level[0], 0);
  int nonzero_levels = 0;
  for (int l = 1; l < kNumLevels; l++) {
    if (stats.files_per_level[l] > 0) nonzero_levels++;
  }
  EXPECT_GE(nonzero_levels, 1);
  for (int i = 0; i < 2000; i += 97) {
    EXPECT_EQ(Get("k" + std::to_string(i)), std::string(50, 'v'));
  }
}

TEST_F(DBTest, SnapshotIsolatesReads) {
  ASSERT_TRUE(db_->Put({}, "k", "old").ok());
  const Snapshot* snap = db_->GetSnapshot();
  ASSERT_TRUE(db_->Put({}, "k", "new").ok());
  ASSERT_TRUE(db_->Delete({}, "other").ok());
  auto at_snap = db_->Get({.snapshot = snap}, "k");
  ASSERT_TRUE(at_snap.ok());
  EXPECT_EQ(*at_snap, "old");
  EXPECT_EQ(Get("k"), "new");
  db_->ReleaseSnapshot(snap);
}

TEST_F(DBTest, SnapshotSurvivesFlushAndCompaction) {
  write_buffer_size_ = 4 << 10;
  Reopen();
  ASSERT_TRUE(db_->Put({}, "pinned", "v0").ok());
  const Snapshot* snap = db_->GetSnapshot();
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(db_->Put({.sync = false}, "pinned", "v" + std::to_string(i)).ok());
    ASSERT_TRUE(db_->Put({.sync = false}, "fill" + std::to_string(i),
                         std::string(40, 'x'))
                    .ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  auto at_snap = db_->Get({.snapshot = snap}, "pinned");
  ASSERT_TRUE(at_snap.ok());
  EXPECT_EQ(*at_snap, "v0");
  db_->ReleaseSnapshot(snap);
  EXPECT_EQ(Get("pinned"), "v1999");
}

TEST_F(DBTest, IteratorScansSortedLiveKeys) {
  ASSERT_TRUE(db_->Put({}, "c", "3").ok());
  ASSERT_TRUE(db_->Put({}, "a", "1").ok());
  ASSERT_TRUE(db_->Put({}, "b", "2").ok());
  ASSERT_TRUE(db_->Delete({}, "b").ok());
  auto iter = db_->NewIterator({});
  std::vector<std::string> seen;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    seen.push_back(std::string(iter->key()) + "=" + std::string(iter->value()));
  }
  EXPECT_EQ(seen, (std::vector<std::string>{"a=1", "c=3"}));
}

TEST_F(DBTest, IteratorSeekPrefixScan) {
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(db_->Put({}, "user/" + std::to_string(100 + i), "u").ok());
  }
  ASSERT_TRUE(db_->Put({}, "post/1", "p").ok());
  auto iter = db_->NewIterator({});
  int count = 0;
  for (iter->Seek("user/"); iter->Valid() && iter->key().substr(0, 5) == "user/";
       iter->Next()) {
    count++;
  }
  EXPECT_EQ(count, 20);
}

TEST_F(DBTest, IteratorMergesMemtableAndTables) {
  write_buffer_size_ = 4 << 10;
  Reopen();
  // Old version flushed to disk, new version in memtable.
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(db_->Put({.sync = false}, "dup", "old" + std::to_string(i)).ok());
    ASSERT_TRUE(db_->Put({.sync = false}, "f" + std::to_string(i),
                         std::string(30, 'x'))
                    .ok());
  }
  ASSERT_TRUE(db_->Put({}, "dup", "newest").ok());
  auto iter = db_->NewIterator({});
  iter->Seek("dup");
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(iter->key(), "dup");
  EXPECT_EQ(iter->value(), "newest");
}

TEST_F(DBTest, IteratorOutlivesCompactionOfItsFiles) {
  // NewIterator takes every table it may read; a compaction that unlinks
  // them afterwards must not fail the scan, whether it runs inline or on
  // the maintenance thread.
  constexpr int kKeys = 4000;
  auto key = [](int i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "key%06d", i);
    return std::string(buf);
  };
  for (bool shared : {false, true}) {
    SCOPED_TRACE(shared ? "serialize_access" : "single-threaded");
    serialize_access_ = shared;
    Reopen();
    for (int i = 0; i < kKeys; i++) ASSERT_TRUE(db_->Put({}, key(i), "old" + std::to_string(i)).ok());
    ASSERT_TRUE(db_->CompactAll().ok());
    for (int i = 0; i < kKeys; i += 2) ASSERT_TRUE(db_->Put({}, key(i), "new" + std::to_string(i)).ok());
    auto iter = db_->NewIterator({});
    ASSERT_TRUE(db_->CompactAll().ok());
    int seen = 0;
    for (iter->SeekToFirst(); iter->Valid(); iter->Next(), seen++) {
      ASSERT_EQ(iter->key(), key(seen));
      EXPECT_EQ(iter->value(), (seen % 2 == 0 ? "new" : "old") + std::to_string(seen));
    }
    EXPECT_TRUE(iter->status().ok()) << iter->status().ToString();
    EXPECT_EQ(seen, kKeys);
  }
}

TEST_F(DBTest, CreateIfMissingFalseFailsOnFreshDir) {
  Options options;
  options.env = &env_;
  options.create_if_missing = false;
  auto db = DB::Open(options, "/nonexistent");
  EXPECT_FALSE(db.ok());
}

TEST_F(DBTest, StatsTrackActivity) {
  ASSERT_TRUE(db_->Put({}, "a", "1").ok());
  (void)db_->Get({}, "a");
  auto stats = db_->GetStats();
  EXPECT_EQ(stats.puts, 1u);
  EXPECT_EQ(stats.gets, 1u);
  EXPECT_GT(stats.wal_syncs, 0u);
}


// ------------------------------------------------------------- filenames

TEST(Filename, FormatAndParseRoundTrip) {
  uint64_t number = 0;
  EXPECT_EQ(ParseFileName("CURRENT", &number), FileKind::kCurrent);
  EXPECT_EQ(ParseFileName("MANIFEST-000007", &number), FileKind::kManifest);
  EXPECT_EQ(number, 7u);
  EXPECT_EQ(ParseFileName("000042.log", &number), FileKind::kWal);
  EXPECT_EQ(number, 42u);
  EXPECT_EQ(ParseFileName("000099.ldb", &number), FileKind::kTable);
  EXPECT_EQ(number, 99u);
  EXPECT_EQ(ParseFileName("junk.txt", &number), FileKind::kUnknown);
  EXPECT_EQ(ParseFileName("x42.log", &number), FileKind::kUnknown);
  EXPECT_EQ(ParseFileName("", &number), FileKind::kUnknown);

  // The generators produce names the parser accepts.
  EXPECT_EQ(TableFileName("/db", 3), "/db/000003.ldb");
  EXPECT_EQ(WalFileName("/db", 12), "/db/000012.log");
  EXPECT_EQ(ManifestFileName("/db", 1), "/db/MANIFEST-000001");
}

// ---------------------------------------------------- compaction details

TEST_F(DBTest, TombstonesAreCollectedAtBottomLevel) {
  write_buffer_size_ = 4 << 10;
  Reopen();
  // Write then delete everything; after full compaction the tombstones
  // have nothing to shadow and must be gone from the table files.
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(db_->Put({.sync = false}, "k" + std::to_string(i),
                         std::string(64, 'v')).ok());
  }
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(db_->Delete({.sync = false}, "k" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  auto stats = db_->GetStats();
  uint64_t total_bytes = 0;
  for (int level = 0; level < kNumLevels; level++) {
    total_bytes += stats.bytes_per_level[level];
  }
  // All user data was deleted; the residual footprint must be tiny
  // (block/index scaffolding only).
  EXPECT_LT(total_bytes, 4096u);
  auto iter = db_->NewIterator({});
  iter->SeekToFirst();
  EXPECT_FALSE(iter->Valid());
}

TEST_F(DBTest, OverwrittenVersionsReclaimedByCompaction) {
  write_buffer_size_ = 4 << 10;
  Reopen();
  std::string value(512, 'x');
  for (int round = 0; round < 40; round++) {
    for (int i = 0; i < 50; i++) {
      ASSERT_TRUE(db_->Put({.sync = false}, "hot" + std::to_string(i), value).ok());
    }
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  auto stats = db_->GetStats();
  uint64_t total_bytes = 0;
  for (int level = 0; level < kNumLevels; level++) {
    total_bytes += stats.bytes_per_level[level];
  }
  // 50 live keys x ~520 bytes ~ 26 KB; 40 versions each would be ~1 MB.
  EXPECT_LT(total_bytes, 100u << 10);
  for (int i = 0; i < 50; i++) {
    EXPECT_EQ(Get("hot" + std::to_string(i)), value);
  }
}

TEST_F(DBTest, ManifestCompactsAcrossReopen) {
  // Repeated reopens must not lose the file layout.
  write_buffer_size_ = 4 << 10;
  Reopen();
  for (int round = 0; round < 5; round++) {
    for (int i = 0; i < 300; i++) {
      ASSERT_TRUE(db_->Put({.sync = false},
                           "r" + std::to_string(round) + "k" + std::to_string(i),
                           std::string(40, 'd')).ok());
    }
    Reopen();
  }
  for (int round = 0; round < 5; round++) {
    for (int i = 0; i < 300; i += 37) {
      EXPECT_EQ(Get("r" + std::to_string(round) + "k" + std::to_string(i)),
                std::string(40, 'd'));
    }
  }
}

TEST_F(DBTest, LargeValuesSurviveEverything) {
  write_buffer_size_ = 64 << 10;
  Reopen();
  Rng rng(21);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 20; i++) {
    std::string key = "big" + std::to_string(i);
    std::string value = rng.Bytes(20000 + rng.Uniform(50000));
    model[key] = value;
    ASSERT_TRUE(db_->Put({.sync = true}, key, value).ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  Crash();
  for (const auto& [key, value] : model) {
    ASSERT_EQ(Get(key), value) << key;
  }
}

TEST_F(DBTest, EmptyBatchIsANoop) {
  WriteBatch batch;
  ASSERT_TRUE(db_->Write({}, &batch).ok());
  EXPECT_EQ(db_->LastSequence(), 0u);
}

TEST_F(DBTest, BinaryKeysAndValues) {
  // Keys with NULs and high bytes (the runtime's key layout uses NUL
  // separators, so this path is load-bearing).
  std::string key1("f\0user/1\0fl", 11);
  std::string key2("f\0user/1\0tl", 11);
  Rng rng(31);
  std::string value = rng.Bytes(256);
  ASSERT_TRUE(db_->Put({}, key1, value).ok());
  ASSERT_TRUE(db_->Put({}, key2, "x").ok());
  auto got = db_->Get({}, key1);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, value);
  Reopen();
  EXPECT_EQ(*db_->Get({}, key1), value);
  EXPECT_EQ(*db_->Get({}, key2), "x");
}

// ------------------------------------------------------------ Block cache

// MemEnv that counts positional reads (table reads: with the block cache
// warm, the hot read path must not touch the Env at all), and makes each
// take `read_us` of wall time.
class CountingEnv : public MemEnv {
 public:
  std::atomic<int64_t> read_us{0};

  Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override {
    auto base = MemEnv::NewRandomAccessFile(path);
    if (!base.ok()) return base.status();
    return {std::make_unique<CountingFile>(std::move(*base), this)};
  }

  uint64_t random_reads() const { return random_reads_.load(); }

 private:
  class CountingFile : public RandomAccessFile {
   public:
    CountingFile(std::unique_ptr<RandomAccessFile> base, CountingEnv* env)
        : base_(std::move(base)), env_(env) {}
    Status Read(uint64_t offset, size_t n, std::string* out) const override {
      env_->random_reads_.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(env_->read_us.load()));
      return base_->Read(offset, n, out);
    }
    uint64_t Size() const override { return base_->Size(); }

   private:
    std::unique_ptr<RandomAccessFile> base_;
    CountingEnv* env_;
  };

  std::atomic<uint64_t> random_reads_{0};
};

class BlockCacheTest : public ::testing::Test {
 public:
  void Open(size_t block_cache_bytes) {
    db_.reset();
    Options options;
    options.env = &env_;
    options.write_buffer_size = 8 << 10;  // tiny: data lives in tables
    options.block_cache_bytes = block_cache_bytes;
    auto db = DB::Open(options, "/db");
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
  }

  // Writes kKeys keys and compacts, so every read goes through SSTables.
  void Populate() {
    for (int i = 0; i < kKeys; i++) {
      ASSERT_TRUE(db_->Put({.sync = false}, Key(i), "val" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(db_->CompactAll().ok());
  }

  static std::string Key(int i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "key%06d", i);
    return buf;
  }

  // All table file numbers currently in the DB directory.
  std::set<uint64_t> TableNumbers() {
    std::set<uint64_t> numbers;
    std::vector<std::string> names = *env_.ListDir("/db");
    for (const std::string& name : names) {
      uint64_t number = 0;
      if (ParseFileName(name, &number) == FileKind::kTable) numbers.insert(number);
    }
    return numbers;
  }

  static constexpr int kKeys = 2000;
  CountingEnv env_;
  std::unique_ptr<DB> db_;
};

TEST_F(BlockCacheTest, HotGetDoesZeroEnvReads) {
  Open(/*block_cache_bytes=*/8 << 20);
  Populate();
  // First read warms the data block (index + filter are pinned at table
  // open, so only the data block can miss).
  ASSERT_EQ(*db_->Get({}, Key(123)), "val123");
  uint64_t reads_after_warm = env_.random_reads();
  for (int i = 0; i < 10; i++) {
    ASSERT_EQ(*db_->Get({}, Key(123)), "val123");
  }
  EXPECT_EQ(env_.random_reads(), reads_after_warm);
  auto stats = db_->GetStats();
  EXPECT_GE(stats.block_cache_hits, 10u);
  EXPECT_GT(stats.block_cache_bytes, 0u);
}

TEST_F(BlockCacheTest, DisabledCacheReadsEnvEveryTime) {
  Open(/*block_cache_bytes=*/0);
  Populate();
  ASSERT_EQ(*db_->Get({}, Key(123)), "val123");
  uint64_t reads_after_first = env_.random_reads();
  ASSERT_EQ(*db_->Get({}, Key(123)), "val123");
  EXPECT_GT(env_.random_reads(), reads_after_first);
  EXPECT_EQ(db_->GetStats().block_cache_hits, 0u);
}

TEST_F(BlockCacheTest, RepeatedScanServedFromCache) {
  Open(/*block_cache_bytes=*/8 << 20);
  Populate();
  auto scan = [&] {
    int n = 0;
    auto iter = db_->NewIterator({});
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) n++;
    EXPECT_EQ(n, kKeys);
  };
  scan();  // warms every data block
  uint64_t reads_after_warm = env_.random_reads();
  scan();
  EXPECT_EQ(env_.random_reads(), reads_after_warm);
}

TEST_F(BlockCacheTest, CorruptionSurfacesAfterReopenNeverStaleCache) {
  Open(/*block_cache_bytes=*/8 << 20);
  Populate();
  ASSERT_EQ(*db_->Get({}, Key(0)), "val0");  // now cached
  std::set<uint64_t> tables = TableNumbers();
  ASSERT_FALSE(tables.empty());
  db_.reset();
  // Flip one bit inside the first data block of every table, then reopen.
  // The cache is per-DB-instance, so the reopened DB must re-read and
  // report Corruption — a stale cached copy of the old bytes would wrongly
  // return "val0" here.
  for (uint64_t number : tables) {
    std::string path = TableFileName("/db", number);
    auto data = *env_.ReadFileToString(path);
    data[32] ^= 0x01;
    ASSERT_TRUE(env_.WriteStringToFile(path, data, true).ok());
  }
  Open(/*block_cache_bytes=*/8 << 20);
  auto got = db_->Get({}, Key(0));
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsCorruption()) << got.status().ToString();
}

TEST_F(BlockCacheTest, TableNumbersNeverRecycled) {
  // The block-cache key is (file number, offset): safe only because table
  // numbers are never reused within a DB, even across compactions (which
  // delete old tables) and reopens. Walk the DB through several
  // generations and check every new table number exceeds all prior ones.
  Open(/*block_cache_bytes=*/8 << 20);
  uint64_t max_seen = 0;
  for (int round = 0; round < 3; round++) {
    for (int i = 0; i < kKeys; i++) {
      ASSERT_TRUE(
          db_->Put({.sync = false}, Key(i), "r" + std::to_string(round)).ok());
    }
    ASSERT_TRUE(db_->CompactAll().ok());
    std::set<uint64_t> tables = TableNumbers();
    ASSERT_FALSE(tables.empty());
    for (uint64_t number : tables) {
      EXPECT_GT(number, max_seen) << "table number recycled in round " << round;
    }
    max_seen = std::max(max_seen, *tables.rbegin());
    if (round == 1) Open(/*block_cache_bytes=*/8 << 20);  // clean reopen
  }
  ASSERT_EQ(*db_->Get({}, Key(7)), "r2");
}

// Model check: random Put/Delete/Get/scan/reopen/crash against std::map.
class DBModelCheck : public ::testing::TestWithParam<int> {};

TEST_P(DBModelCheck, MatchesStdMap) {
  MemEnv env;
  Options options;
  options.env = &env;
  options.write_buffer_size = 2 << 10;  // tiny: constant flush/compaction
  auto db = *DB::Open(options, "/m");
  std::map<std::string, std::string> model;   // durable state
  std::map<std::string, std::string> dirty;   // includes unsynced writes
  Rng rng(static_cast<uint64_t>(GetParam()));

  // Durability points: an explicit WAL sync, or a memtable flush (the
  // SSTable + manifest are synced); both make the whole write prefix
  // durable.
  uint64_t flushes_seen = 0;
  auto note_durability = [&](bool synced_write) {
    uint64_t flushes = db->GetStats().flushes;
    if (synced_write || flushes != flushes_seen) model = dirty;
    flushes_seen = flushes;
  };

  for (int step = 0; step < 1500; step++) {
    int op = static_cast<int>(rng.Uniform(100));
    std::string key = "k" + std::to_string(rng.Uniform(60));
    if (op < 45) {
      std::string value = "v" + std::to_string(step);
      bool sync = rng.Bernoulli(0.5);
      ASSERT_TRUE(db->Put({.sync = sync}, key, value).ok());
      dirty[key] = value;
      note_durability(sync);
    } else if (op < 60) {
      bool sync = rng.Bernoulli(0.5);
      ASSERT_TRUE(db->Delete({.sync = sync}, key).ok());
      dirty.erase(key);
      note_durability(sync);
    } else if (op < 85) {
      auto got = db->Get({}, key);
      auto it = dirty.find(key);
      if (it == dirty.end()) {
        ASSERT_TRUE(got.status().IsNotFound()) << key;
      } else {
        ASSERT_TRUE(got.ok()) << key << " " << got.status().ToString();
        ASSERT_EQ(*got, it->second);
      }
    } else if (op < 92) {
      // Full scan must equal the dirty model exactly.
      auto iter = db->NewIterator({});
      auto it = dirty.begin();
      for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++it) {
        ASSERT_NE(it, dirty.end());
        ASSERT_EQ(iter->key(), it->first);
        ASSERT_EQ(iter->value(), it->second);
      }
      ASSERT_EQ(it, dirty.end());
    } else if (op < 97) {
      // Clean reopen: nothing may be lost.
      db.reset();
      db = *DB::Open(options, "/m");
      model = dirty;
      flushes_seen = db->GetStats().flushes;
    } else {
      // Crash: undurable suffix is lost, durable prefix must survive.
      db.reset();
      env.DropUnsyncedData();
      db = *DB::Open(options, "/m");
      dirty = model;
      flushes_seen = db->GetStats().flushes;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DBModelCheck, ::testing::Range(1, 9));

// -------------------------------------------------- crash-recovery matrix

// Deterministic workload for the crash matrix: synced puts/deletes whose
// values are big enough to force several memtable flushes, so crash
// points land in every layer of the commit path (WAL append, WAL sync,
// SSTable build, manifest append, WAL rotation/delete). Stops at the
// first failed op — the injected crash. Every op uses sync=true, so
// everything acknowledged must survive power loss; the one op in flight
// at the crash was NOT acknowledged, and like on a real disk it may land
// either way (a torn append can happen to persist the whole record).
struct CrashWorkloadResult {
  std::map<std::string, std::optional<std::string>> acked;  // nullopt = deleted
  bool crashed = false;
  std::string inflight_key;                  // set iff crashed
  std::optional<std::string> inflight_value; // the op that got no ack
};

CrashWorkloadResult RunCrashWorkload(DB* db) {
  CrashWorkloadResult r;
  for (int i = 0; i < 120; i++) {
    std::string key = "k" + std::to_string(i % 17);
    if (i % 7 == 6) {
      if (!db->Delete({.sync = true}, key).ok()) {
        r.crashed = true;
        r.inflight_key = key;
        r.inflight_value = std::nullopt;
        break;
      }
      r.acked[key] = std::nullopt;
    } else {
      std::string value =
          "v" + std::to_string(i) + std::string(180, static_cast<char>('a' + i % 23));
      if (!db->Put({.sync = true}, key, value).ok()) {
        r.crashed = true;
        r.inflight_key = key;
        r.inflight_value = value;
        break;
      }
      r.acked[key] = value;
    }
  }
  return r;
}

// True iff the recovered `got` for `key` matches expectation `want`
// (nullopt = must be absent).
testing::AssertionResult Matches(const Result<std::string>& got,
                                 const std::optional<std::string>& want) {
  if (want.has_value()) {
    if (!got.ok()) {
      return testing::AssertionFailure()
             << "expected value, got " << got.status().ToString();
    }
    if (*got != *want) {
      return testing::AssertionFailure() << "value mismatch";
    }
    return testing::AssertionSuccess();
  }
  if (!got.status().IsNotFound()) {
    return testing::AssertionFailure()
           << "expected absent, got " << got.status().ToString();
  }
  return testing::AssertionSuccess();
}

TEST(CrashRecoveryMatrix, AckedWritesSurviveEveryCrashPoint) {
  Options options;
  options.write_buffer_size = 4 << 10;

  // Pass 1, fault-free: size the matrix. The sweep below crashes at every
  // single write-side op the workload performs.
  uint64_t workload_ops = 0;
  {
    MemEnv base;
    FaultyEnv faulty(&base, /*seed=*/1);
    options.env = &faulty;
    auto db = std::move(*DB::Open(options, "/c"));
    uint64_t ops_at_start = faulty.write_ops();
    ASSERT_FALSE(RunCrashWorkload(db.get()).crashed);
    // Measured before shutdown: the sweep arms the crash while the
    // workload runs, so shutdown-time ops are out of range.
    workload_ops = faulty.write_ops() - ops_at_start;
    db.reset();
  }
  ASSERT_GT(workload_ops, 100u);  // flush + manifest paths are in range

  uint64_t wal_torn = 0, manifest_torn = 0, torn_appends = 0;
  for (uint64_t k = 1; k <= workload_ops; k++) {
    MemEnv base;
    FaultyEnv faulty(&base, /*seed=*/k);  // torn lengths vary across points
    options.env = &faulty;
    auto db = std::move(*DB::Open(options, "/c"));
    faulty.CrashAfterWriteOps(k);
    CrashWorkloadResult r = RunCrashWorkload(db.get());
    // The env always crashes within the workload's op range, but the
    // workload may not observe it: if the k-th op is a best-effort
    // cleanup (e.g. deleting the old WAL after rotation) its failure is
    // swallowed by design and every user-visible op was acked.
    ASSERT_TRUE(faulty.crashed()) << "crash point " << k << " never fired";
    db.reset();
    base.DropUnsyncedData();  // power loss: only fsync'ed bytes remain
    faulty.Revive();
    auto reopened = DB::Open(options, "/c");
    ASSERT_TRUE(reopened.ok()) << "recovery failed at crash point " << k
                               << ": " << reopened.status().ToString();
    db = std::move(*reopened);
    wal_torn += db->GetStats().wal_torn_tails;
    manifest_torn += db->GetStats().manifest_torn_tails;
    torn_appends += faulty.stats().torn_appends;
    for (const auto& [key, value] : r.acked) {
      auto got = db->Get({}, key);
      if (key == r.inflight_key) {
        // The op in flight at the crash was never acknowledged; like on a
        // real disk it may land either way (a torn append can persist the
        // whole record). Both the pre-crash acked value and the in-flight
        // value are linearizable outcomes — anything else is a bug.
        EXPECT_TRUE(Matches(got, value) || Matches(got, r.inflight_value))
            << "crash point " << k << " key " << key
            << " is neither the acked nor the in-flight value";
      } else {
        EXPECT_TRUE(Matches(got, value))
            << "crash point " << k << " corrupted acked key " << key;
      }
    }
    // The in-flight key, if never previously acked, may only hold the
    // in-flight value or be absent — never garbage.
    if (!r.acked.count(r.inflight_key)) {
      auto got = db->Get({}, r.inflight_key);
      EXPECT_TRUE(Matches(got, std::nullopt) || Matches(got, r.inflight_value))
          << "crash point " << k;
    }
    // The recovered DB must be fully usable, not just readable.
    ASSERT_TRUE(db->Put({.sync = true}, "post-recovery", "ok").ok())
        << "crash point " << k;
  }
  // The sweep must have exercised the interesting recovery paths — torn
  // tails detected and truncated — not only clean-tail reopens.
  EXPECT_GT(torn_appends, 0u);
  EXPECT_GT(wal_torn, 0u);
  EXPECT_GT(manifest_torn, 0u);
}

TEST(CrashRecoveryMatrix, SameSeedReplaysIdenticalFaultSchedule) {
  // Two runs with the same seed and crash point must tear identically
  // and recover to identical state.
  auto run = [](uint64_t seed) {
    Options options;
    options.write_buffer_size = 4 << 10;
    MemEnv base;
    FaultyEnv faulty(&base, seed);
    options.env = &faulty;
    auto db = std::move(*DB::Open(options, "/c"));
    faulty.CrashAfterWriteOps(57);
    RunCrashWorkload(db.get());
    db.reset();
    base.DropUnsyncedData();
    faulty.Revive();
    db = std::move(*DB::Open(options, "/c"));
    std::string dump;
    auto iter = db->NewIterator({});
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
      dump += std::string(iter->key()) + "=" + std::string(iter->value()) + ";";
    }
    return std::make_pair(dump, faulty.stats().torn_appends);
  };
  EXPECT_EQ(run(3), run(3));
}

TEST(FaultyEnvTest, SyncFailureSurfacesToCallerAndWalRotates) {
  MemEnv base;
  FaultyEnv faulty(&base, 3);
  Options options;
  options.env = &faulty;
  auto db = std::move(*DB::Open(options, "/s"));
  ASSERT_TRUE(db->Put({.sync = true}, "a", "1").ok());

  // fsync returns EIO: the commit must fail loudly, and the write must
  // NOT be applied (acknowledged state == recoverable state).
  faulty.FailSyncs(true);
  Status s = db->Put({.sync = true}, "b", "2");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(db->GetStats().wal_write_failures, 1u);
  EXPECT_TRUE(db->Get({}, "b").status().IsNotFound());

  // Once the disk heals, the next write abandons the suspect WAL
  // (rotation) and proceeds.
  faulty.FailSyncs(false);
  ASSERT_TRUE(db->Put({.sync = true}, "c", "3").ok());
  EXPECT_EQ(db->GetStats().wal_rotations_after_error, 1u);
  EXPECT_EQ(*db->Get({}, "a"), "1");
  EXPECT_EQ(*db->Get({}, "c"), "3");

  // Crash + reopen: the acknowledged writes survive the rotation; the
  // failed write stays gone.
  db.reset();
  base.DropUnsyncedData();
  db = std::move(*DB::Open(options, "/s"));
  EXPECT_EQ(*db->Get({}, "a"), "1");
  EXPECT_EQ(*db->Get({}, "c"), "3");
  EXPECT_TRUE(db->Get({}, "b").status().IsNotFound());
}

// ---------------------------------------------------------- Group commit

// A queued commit for driving the grouping rule (CommitGroup::Seal and
// CommitGroup::Resolve) with no thread: it records how it resolved.
struct RuleMember {
  WriteBatch batch;
  int id = 0;
  std::vector<std::pair<int, Status>>* resolved = nullptr;
  void Resolve(const Status& status) { resolved->emplace_back(id, status); }
};

WriteBatch PutBatch(const std::string& key, size_t value_bytes) {
  WriteBatch batch;
  batch.Put(key, std::string(value_bytes, 'v'));
  return batch;
}

using RuleGroup = CommitGroup<RuleMember>;

std::vector<int> MemberIds(const RuleGroup& group) {
  std::vector<int> ids;
  for (const RuleMember& member : group.members) ids.push_back(member.id);
  return ids;
}

TEST(GroupCommitRuleTest, SealsMembersInArrivalOrder) {
  std::vector<std::pair<int, Status>> resolved;
  std::deque<RuleMember> queue;
  for (int id = 0; id < 4; id++) {
    queue.push_back({PutBatch("k" + std::to_string(id), 8), id, &resolved});
  }
  RuleGroup group = RuleGroup::Seal(&queue, 1 << 20);
  EXPECT_EQ(MemberIds(group), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(group.combined.Count(), 4u);
}

TEST(GroupCommitRuleTest, GroupStopsBeforePassingTheByteBound) {
  std::vector<std::pair<int, Status>> resolved;
  std::deque<RuleMember> queue;
  for (int id = 0; id < 5; id++) {
    queue.push_back({PutBatch("k" + std::to_string(id), 100), id, &resolved});
  }
  const size_t member_bytes = queue.front().batch.ByteSize();
  // Room for two members and most of a third.
  const size_t max_bytes = 3 * member_bytes - 1;
  RuleGroup first = RuleGroup::Seal(&queue, max_bytes);
  EXPECT_EQ(MemberIds(first), (std::vector<int>{0, 1}));
  EXPECT_EQ(first.bytes, 2 * member_bytes);
  RuleGroup second = RuleGroup::Seal(&queue, max_bytes);
  EXPECT_EQ(MemberIds(second), (std::vector<int>{2, 3}));
  RuleGroup third = RuleGroup::Seal(&queue, max_bytes);
  EXPECT_EQ(MemberIds(third), (std::vector<int>{4}));
  EXPECT_TRUE(queue.empty());
}

TEST(GroupCommitRuleTest, OversizedBatchFormsAGroupOfOne) {
  std::vector<std::pair<int, Status>> resolved;
  std::deque<RuleMember> queue;
  queue.push_back({PutBatch("big", 4096), 0, &resolved});
  queue.push_back({PutBatch("small", 1), 1, &resolved});
  RuleGroup group = RuleGroup::Seal(&queue, 64);
  EXPECT_EQ(MemberIds(group), (std::vector<int>{0}));
  EXPECT_GT(group.bytes, 64u);
  ASSERT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.front().id, 1);
}

TEST(GroupCommitRuleTest, CombinedBatchKeepsMembersRecordsInOrder) {
  // Each member carries an applied marker beside its write, laid out as
  // runtime::AppliedMarkerKey lays it out: f\0<oid>\0\x01idem\0<tok>\0<i>.
  auto marker = [](const std::string& oid, const std::string& token) {
    return std::string("f\0", 2) + oid + std::string("\0\x01idem\0", 7) +
           token + std::string("\0\0", 2);
  };
  std::vector<std::pair<int, Status>> resolved;
  std::deque<RuleMember> queue;
  for (int id = 0; id < 3; id++) {
    std::string oid = "user/" + std::to_string(id);
    WriteBatch batch;
    batch.Put(oid + "/field", "v" + std::to_string(id));
    batch.Put(marker(oid, "tok" + std::to_string(id)), "");
    if (id == 1) batch.Delete("user/0/field");  // overrides member 0's put
    queue.push_back({std::move(batch), id, &resolved});
  }
  RuleGroup group = RuleGroup::Seal(&queue, 1 << 20);
  ASSERT_EQ(group.members.size(), 3u);

  struct Recorder : WriteBatch::Handler {
    std::vector<std::string> records;
    void Put(std::string_view key, std::string_view) override {
      records.push_back("put " + std::string(key));
    }
    void Delete(std::string_view key) override {
      records.push_back("del " + std::string(key));
    }
  } recorder;
  ASSERT_TRUE(group.combined.Iterate(&recorder).ok());
  EXPECT_EQ(recorder.records,
            (std::vector<std::string>{
                "put user/0/field", "put " + marker("user/0", "tok0"),
                "put user/1/field", "put " + marker("user/1", "tok1"),
                "del user/0/field", "put user/2/field",
                "put " + marker("user/2", "tok2")}));

  // Written as one batch, later records win and every marker lands.
  MemEnv env;
  Options options;
  options.env = &env;
  auto db = std::move(*DB::Open(options, "/rule"));
  ASSERT_TRUE(db->Write({}, &group.combined).ok());
  EXPECT_TRUE(db->Get({}, "user/0/field").status().IsNotFound());
  EXPECT_EQ(*db->Get({}, "user/1/field"), "v1");
  EXPECT_EQ(*db->Get({}, "user/2/field"), "v2");
  for (int id = 0; id < 3; id++) {
    std::string oid = "user/" + std::to_string(id);
    EXPECT_TRUE(db->Get({}, marker(oid, "tok" + std::to_string(id))).ok());
  }
}

TEST(GroupCommitRuleTest, FailedGroupResolvesExactlyItsOwnMembers) {
  std::vector<std::pair<int, Status>> resolved;
  std::deque<RuleMember> queue;
  for (int id = 0; id < 4; id++) {
    queue.push_back({PutBatch("k" + std::to_string(id), 100), id, &resolved});
  }
  const size_t member_bytes = queue.front().batch.ByteSize();
  GroupCommitStats stats;

  RuleGroup failed = RuleGroup::Seal(&queue, 2 * member_bytes);
  failed.Resolve(Status::IOError("sync failed"), &stats);
  ASSERT_EQ(resolved.size(), 2u);
  for (int i = 0; i < 2; i++) {
    EXPECT_EQ(resolved[i].first, i);
    EXPECT_FALSE(resolved[i].second.ok());
  }
  EXPECT_EQ(queue.size(), 2u);  // the next group's members stay queued
  EXPECT_EQ(stats.sync_failures, 1u);
  EXPECT_EQ(stats.groups, 1u);
  EXPECT_EQ(stats.commits, 2u);

  RuleGroup healthy = RuleGroup::Seal(&queue, 2 * member_bytes);
  healthy.Resolve(Status::OK(), &stats);
  ASSERT_EQ(resolved.size(), 4u);
  for (int i = 2; i < 4; i++) {
    EXPECT_EQ(resolved[i].first, i);
    EXPECT_TRUE(resolved[i].second.ok());
  }
  EXPECT_EQ(stats.sync_failures, 1u);
  EXPECT_EQ(stats.groups, 2u);
  EXPECT_EQ(stats.commits, 4u);
  EXPECT_EQ(stats.max_group_commits, 2u);
  EXPECT_EQ(stats.coalesced_bytes, 4 * member_bytes);
}

// Commits from `threads` OS threads through one GroupCommitter, each
// writing `per_thread` sequential keys prefixed with its thread index.
// Returns per-thread status vectors in submission order.
std::vector<std::vector<Status>> CommitConcurrently(GroupCommitter* committer,
                                                    int threads,
                                                    int per_thread) {
  std::vector<std::vector<Status>> statuses(threads);
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; t++) {
    statuses[t].resize(per_thread);
    workers.emplace_back([committer, t, per_thread, &statuses] {
      for (int i = 0; i < per_thread; i++) {
        WriteBatch batch;
        std::string key = "t" + std::to_string(t) + "/k" + std::to_string(i);
        batch.Put(key, "v" + std::to_string(i));
        statuses[t][i] = committer->Commit(std::move(batch));
      }
    });
  }
  for (auto& w : workers) w.join();
  return statuses;
}

TEST(GroupCommitTest, OneFsyncPerGroupObservableViaMetrics) {
  // Each WAL sync holds the committer for 1 ms; the other threads'
  // commits pile up behind it and form the next group.
  SlowWalSyncEnv env(1000);
  Options options;
  options.env = &env;
  options.serialize_access = true;
  auto db = std::move(*DB::Open(options, "/gc"));
  const uint64_t syncs_before = db->GetStats().wal_syncs;

  GroupCommitter committer(db.get());

  // Export the committer's live counters the way cluster::StorageNode
  // does, and assert through the registry snapshot rather than private
  // state: the fsync count must equal the group count exactly.
  obs::MetricsRegistry registry;
  registry.RegisterCallback("gc.commits", 0, [&committer] {
    return static_cast<double>(committer.stats().commits);
  });
  registry.RegisterCallback("gc.groups", 0, [&committer] {
    return static_cast<double>(committer.stats().groups);
  });
  registry.RegisterCallback("db.wal_syncs_delta", 0, [&db, syncs_before] {
    return static_cast<double>(db->GetStats().wal_syncs - syncs_before);
  });

  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  auto statuses = CommitConcurrently(&committer, kThreads, kPerThread);
  committer.Drain();
  for (const auto& thread_statuses : statuses) {
    for (const Status& s : thread_statuses) ASSERT_TRUE(s.ok());
  }

  std::map<std::string, double> by_name;
  for (const auto& sample : registry.Snapshot()) {
    by_name[sample.name] = sample.value;
  }
  EXPECT_EQ(by_name["gc.commits"], kThreads * kPerThread);
  // Exactly one fsync per sealed group — no extra syncs snuck in
  // through another path, none were skipped.
  EXPECT_EQ(by_name["gc.groups"], by_name["db.wal_syncs_delta"]);
  // And backpressure actually coalesced: far fewer fsyncs than commits.
  EXPECT_LT(by_name["gc.groups"], by_name["gc.commits"] / 2);

  auto stats = committer.stats();
  EXPECT_GE(stats.max_group_commits, 2u);
  EXPECT_EQ(stats.sync_failures, 0u);
  for (int t = 0; t < kThreads; t++) {
    EXPECT_EQ(*db->Get({}, "t" + std::to_string(t) + "/k0"), "v0");
  }
}

TEST(GroupCommitTest, SyncFailureFailsEveryWaiterInTheAtRiskGroups) {
  MemEnv base;
  FaultyEnv faulty(&base, 77);
  Options options;
  options.env = &faulty;
  options.serialize_access = true;
  auto db = std::move(*DB::Open(options, "/gc"));

  GroupCommitter committer(db.get());

  {
    WriteBatch batch;
    batch.Put("before", "1");
    ASSERT_TRUE(committer.Commit(std::move(batch)).ok());
  }

  // Every commit grouped while syncs fail must surface the error to its
  // own waiter — an fsync failure is never swallowed by the coalescing.
  faulty.FailSyncs(true);
  auto statuses = CommitConcurrently(&committer, 4, 8);
  committer.Drain();
  faulty.FailSyncs(false);
  for (const auto& thread_statuses : statuses) {
    for (const Status& s : thread_statuses) {
      EXPECT_FALSE(s.ok()) << "commit acked while its fsync failed";
    }
  }
  auto stats = committer.stats();
  EXPECT_GE(stats.sync_failures, 1u);
  EXPECT_LE(stats.sync_failures, stats.groups);

  // Healthy again: the DB rotated its WAL after the write error (PR 2
  // semantics), so later groups commit cleanly.
  {
    WriteBatch batch;
    batch.Put("after", "2");
    EXPECT_TRUE(committer.Commit(std::move(batch)).ok());
  }
  EXPECT_EQ(*db->Get({}, "before"), "1");
  EXPECT_EQ(*db->Get({}, "after"), "2");
}

TEST(GroupCommitTest, CrashRecoveryNeverLosesAckedGroupMembers) {
  // Batch-boundary recovery, crash-recovery-matrix style: crash the env
  // after k write ops while threads are committing through shared
  // fsyncs, power-loss the unsynced tail, reopen, and require every
  // commit that was ACKED before the crash to still be present — group
  // members share an fsync, so an ack is only sound if the whole group
  // made it. Keys never acked may or may not survive (their group's
  // sync might have been mid-flight); both outcomes are legal.
  for (uint64_t crash_after : {5u, 20u, 60u}) {
    MemEnv base;
    FaultyEnv faulty(&base, 1000 + crash_after);
    Options options;
    options.env = &faulty;
    options.serialize_access = true;
    auto db = std::move(*DB::Open(options, "/gc"));

    std::vector<std::set<std::string>> acked(4);
    {
      GroupCommitter committer(db.get());
      faulty.CrashAfterWriteOps(crash_after);

      std::vector<std::thread> workers;
      for (int t = 0; t < 4; t++) {
        workers.emplace_back([&committer, &acked, t] {
          for (int i = 0; i < 40; i++) {
            WriteBatch batch;
            std::string key =
                "t" + std::to_string(t) + "/k" + std::to_string(i);
            batch.Put(key, "v");
            if (committer.Commit(std::move(batch)).ok()) {
              acked[t].insert(key);
            }
          }
        });
      }
      for (auto& w : workers) w.join();
    }
    ASSERT_TRUE(faulty.crashed()) << "crash_after=" << crash_after;

    db.reset();
    base.DropUnsyncedData();
    faulty.Revive();
    db = std::move(*DB::Open(options, "/gc"));
    size_t total_acked = 0;
    for (int t = 0; t < 4; t++) {
      total_acked += acked[t].size();
      for (const std::string& key : acked[t]) {
        EXPECT_TRUE(db->Get({}, key).ok())
            << "crash_after=" << crash_after << " lost acked key " << key;
      }
    }
    // The crash points are sized so some commits land before the crash.
    if (crash_after >= 20) {
      EXPECT_GT(total_acked, 0u);
    }
  }
}

TEST(FaultyEnvTest, OpsFailWhileCrashedUntilRevived) {
  MemEnv base;
  FaultyEnv faulty(&base, 11);
  auto file = std::move(*faulty.NewWritableFile("/f"));
  faulty.CrashAfterWriteOps(1);
  EXPECT_FALSE(file->Append("x").ok());
  EXPECT_TRUE(faulty.crashed());
  EXPECT_FALSE(faulty.NewWritableFile("/g").ok());
  EXPECT_FALSE(faulty.DeleteFile("/f").ok());
  EXPECT_GE(faulty.stats().failed_ops_while_crashed, 2u);
  faulty.Revive();
  EXPECT_TRUE(faulty.NewWritableFile("/g").ok());
}

// ------------------------------------------------- Crash mid-compaction

TEST(Compaction, CrashMidCompactAllRecoversCleanly) {
  // Crash at many points inside CompactAll. Compaction is invisible to
  // users: after every crash + reopen, the acked data must read back
  // exactly; torn compaction outputs are orphans to reap.
  Options options;
  options.write_buffer_size = 4 << 10;

  // Pass 1, fault-free: learn how many write ops the compaction performs
  // and what the data should look like.
  std::map<std::string, std::string> model;
  uint64_t compact_ops = 0;
  {
    MemEnv base;
    FaultyEnv faulty(&base, /*seed=*/29);
    options.env = &faulty;
    auto db = std::move(*DB::Open(options, "/db"));
    Rng rng(31);
    for (int i = 0; i < 1500; i++) {
      std::string key = "key" + std::to_string(rng.Uniform(300));
      std::string value = "val" + std::to_string(i);
      ASSERT_TRUE(db->Put({.sync = true}, key, value).ok());
      model[key] = value;
    }
    uint64_t ops_before = faulty.write_ops();
    ASSERT_TRUE(db->CompactAll().ok());
    compact_ops = faulty.write_ops() - ops_before;
  }
  ASSERT_GT(compact_ops, 20u);

  for (uint64_t k = 5; k < compact_ops; k += compact_ops / 7) {
    MemEnv base;
    FaultyEnv faulty(&base, /*seed=*/k);
    options.env = &faulty;
    auto db = std::move(*DB::Open(options, "/db"));
    Rng rng(31);
    for (int i = 0; i < 1500; i++) {
      std::string key = "key" + std::to_string(rng.Uniform(300));
      ASSERT_TRUE(db->Put({.sync = true}, key, "val" + std::to_string(i)).ok());
    }
    faulty.CrashAfterWriteOps(k);
    Status s = db->CompactAll();  // expected to fail at most crash points
    (void)s;
    db.reset();
    base.DropUnsyncedData();
    faulty.Revive();
    auto reopened = DB::Open(options, "/db");
    ASSERT_TRUE(reopened.ok())
        << "crash at compaction op " << k << ": "
        << reopened.status().ToString();
    db = std::move(*reopened);
    for (const auto& [key, value] : model) {
      auto got = db->Get({}, key);
      ASSERT_TRUE(got.ok()) << "crash at op " << k << " lost " << key;
      EXPECT_EQ(*got, value) << "crash at op " << k;
    }
    // Still fully usable: the next compaction completes.
    ASSERT_TRUE(db->CompactAll().ok()) << "crash at op " << k;
  }
}

// ------------------------------------------------- Maintenance thread

TEST(MaintenanceThread, CrashSweepLosesNoAckedCommit) {
  // A serialize_access DB flushes and compacts on its own thread while
  // commits flow through the group committer. Sweep the crash point over
  // the run: wherever it lands (a WAL append, or a table or manifest
  // write of a background flush or compaction), every acked commit
  // survives the power cut and the reopened DB takes writes again.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 150;
  const std::string value(100, 'v');
  struct Run {
    std::vector<std::set<std::string>> acked;
    DB::Stats stats;  // when the writers stopped (after any crash)
    uint64_t ops = 0;  // write ops from the first commit on
    bool crashed = false;
    std::string crash_path;
  };
  auto run = [&](MemEnv* base, FaultyEnv* faulty, const Options& options,
                 uint64_t crash_after) {
    Run out;
    out.acked.resize(kThreads);
    auto db = std::move(*DB::Open(options, "/db"));
    {
      GroupCommitter committer(db.get());
      faulty->CrashAfterWriteOps(crash_after);
      uint64_t ops_before = faulty->write_ops();
      std::vector<std::thread> writers;
      for (int t = 0; t < kThreads; t++) {
        writers.emplace_back([&, t] {
          for (int i = 0; i < kPerThread; i++) {
            WriteBatch batch;
            std::string key = "t" + std::to_string(t) + "/k" + std::to_string(i);
            batch.Put(key, value);
            if (committer.Commit(std::move(batch)).ok()) out.acked[t].insert(key);
          }
        });
      }
      for (auto& w : writers) w.join();
      out.ops = faulty->write_ops() - ops_before;
    }
    out.stats = db->GetStats();
    out.crashed = faulty->crashed();
    out.crash_path = faulty->crash_path();
    db.reset();
    base->DropUnsyncedData();
    faulty->Revive();
    return out;
  };

  Options options;
  options.serialize_access = true;
  options.write_buffer_size = 4 << 10;

  // Fault-free pass: size the sweep, and check maintenance really runs.
  uint64_t total_ops = 0;
  {
    MemEnv base;
    FaultyEnv faulty(&base, 1);
    options.env = &faulty;
    Run clean = run(&base, &faulty, options, 0);
    total_ops = clean.ops;
    ASSERT_GT(clean.stats.flushes, 5u);
    ASSERT_GT(clean.stats.compactions, 0u);
  }
  ASSERT_GT(total_ops, 200u);

  int wal_crashes = 0, table_crashes = 0, manifest_crashes = 0;
  uint64_t max_flushes_at_crash = 0, max_compactions_at_crash = 0;
  for (uint64_t k = 3; k < total_ops * 9 / 10; k += total_ops / 40) {
    MemEnv base;
    FaultyEnv faulty(&base, 500 + k);
    options.env = &faulty;
    Run crashed = run(&base, &faulty, options, k);
    if (crashed.crashed) {
      const std::string& path = crashed.crash_path;
      if (path.ends_with(".log")) wal_crashes++;
      if (path.ends_with(".ldb")) table_crashes++;
      if (path.find("MANIFEST") != std::string::npos) manifest_crashes++;
      max_flushes_at_crash = std::max(max_flushes_at_crash, crashed.stats.flushes);
      max_compactions_at_crash = std::max(max_compactions_at_crash, crashed.stats.compactions);
    }

    auto reopened = DB::Open(options, "/db");
    ASSERT_TRUE(reopened.ok()) << "crash after " << k << " ops in " << crashed.crash_path
                               << ": " << reopened.status().ToString();
    auto db = std::move(*reopened);
    for (const auto& keys : crashed.acked) {
      for (const std::string& key : keys) {
        auto got = db->Get({}, key);
        ASSERT_TRUE(got.ok()) << "crash after " << k << " ops in " << crashed.crash_path
                              << " lost acked " << key;
        EXPECT_EQ(*got, value);
      }
    }
    GroupCommitter committer(db.get());
    WriteBatch batch;
    batch.Put("after-crash", "ok");
    ASSERT_TRUE(committer.Commit(std::move(batch)).ok()) << "crash after " << k;
    EXPECT_EQ(*db->Get({}, "after-crash"), "ok");
  }
  // The sweep reached every writer of the run, not only the commit path:
  // table and manifest files are written only by background flushes and
  // compactions once the DB is open.
  EXPECT_GT(wal_crashes, 0);
  EXPECT_GT(table_crashes, 0);
  EXPECT_GT(manifest_crashes, 0);
  EXPECT_GT(max_flushes_at_crash, 0u);
  EXPECT_GT(max_compactions_at_crash, 0u);
}

TEST(MaintenanceThread, MemtableFilledDuringACompactionIsFlushedFirst) {
  // Four flushes start an L0 compaction whose input reads are slow (only
  // a compaction reads a table here; a flush only writes one). A memtable
  // that fills meanwhile must be flushed while the compaction still runs,
  // as in LevelDB, so that writers at the imm stop wait for a flush, not
  // for the rest of the compaction.
  Options options;
  options.write_buffer_size = 16 << 10;
  std::string value(1000, 'v');
  auto key = [](int k) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%05d", k);
    return std::string(buf);
  };
  // Fixed-size entries: every memtable switches after the same number of
  // puts. An inline DB counts them.
  int per_memtable = 0;
  {
    MemEnv probe_env;
    options.env = &probe_env;
    auto probe = std::move(*DB::Open(options, "/probe"));
    while (probe->GetStats().flushes == 0) {
      ASSERT_TRUE(probe->Put({}, key(per_memtable++), value).ok());
    }
  }

  CountingEnv env;
  env.read_us = 5000;
  options.env = &env;
  options.serialize_access = true;
  auto db = std::move(*DB::Open(options, "/db"));
  auto wait_until = [&](auto done) {
    for (int i = 0; i < 20000 && !done(db->GetStats()); i++) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    return done(db->GetStats());
  };
  int puts = 0;
  auto fill_memtable = [&] {
    for (int i = 0; i < per_memtable; i++) {
      ASSERT_TRUE(db->Put({}, key(puts++), value).ok());
    }
  };
  for (uint64_t m = 1; m <= 4; m++) {
    fill_memtable();
    ASSERT_TRUE(wait_until([m](const DB::Stats& s) { return s.flushes == m; }));
  }
  ASSERT_TRUE(wait_until([](const DB::Stats& s) { return s.compactions == 1; }));
  fill_memtable();
  ASSERT_TRUE(wait_until([](const DB::Stats& s) { return s.flushes == 5; }));
  EXPECT_EQ(db->GetStats().files_per_level[1], 0)
      << "the fifth memtable was flushed only after the compaction ended";

  env.read_us = 0;
  ASSERT_TRUE(db->CompactAll().ok());
  for (int k = 0; k < puts; k++) {
    ASSERT_TRUE(db->Get({}, key(k)).ok()) << k;
  }
}

// ------------------------------------------------- Stall shaping

TEST(StallShaping, SoftSlowdownEngagesBeforeHardStop) {
  // The maintenance thread with compaction deferred far out (trigger
  // 100): flushes pile L0 past the slowdown line, so writes take the
  // one-per-write soft delay; the stop line stays unreachable, so the
  // hard tier never engages. The obs counters are the assertion surface.
  MemEnv env;
  Options options;
  options.env = &env;
  options.serialize_access = true;
  options.write_buffer_size = 8 << 10;
  options.l0_compaction_trigger = 100;
  options.l0_slowdown_trigger = 4;
  options.l0_stop_trigger = 100000;
  options.slowdown_delay_us = 100;
  {
    auto db = std::move(*DB::Open(options, "/db"));
    // Small values: many writes per memtable switch, so each soft delay
    // gives the maintenance thread ample time to drain the imm queue and
    // the hard tier (imm backlog) stays out of reach.
    std::string value(128, 'v');
    for (int i = 0; i < 1200; i++) {
      ASSERT_TRUE(db->Put({.sync = true}, "k" + std::to_string(i), value).ok());
    }
    DB::Stats stats = db->GetStats();
    EXPECT_GT(stats.stall_soft, 0u) << "L0 pressure never engaged the soft tier";
    EXPECT_GT(stats.stall_us, 0u) << "soft stalls must accumulate stall time";
    // The L0 stop line is unreachable here, so soft shaping must carry
    // the backpressure. (A rare hard stall can still fire through the
    // imm-backlog path when the maintenance thread is starved for two
    // whole memtable fills — e.g. single-core CI — so assert dominance,
    // not absence.)
    EXPECT_GT(stats.stall_soft, stats.stall_hard)
        << "the soft tier should engage long before any hard stall";
    // Still correct under pressure.
    for (int i = 0; i < 1200; i++) {
      auto got = db->Get({}, "k" + std::to_string(i));
      ASSERT_TRUE(got.ok()) << i;
    }
  }
}

TEST(StallShaping, HardStopBoundsImmBacklogAndRecovers) {
  // Tiny triggers with compaction enabled: writers outrun the
  // maintenance thread, hit the hard tier, and every write still lands.
  MemEnv env;
  Options options;
  options.env = &env;
  options.serialize_access = true;
  options.write_buffer_size = 2 << 10;
  options.slowdown_delay_us = 10;
  auto db = std::move(*DB::Open(options, "/db"));
  std::string value(512, 'v');
  for (int i = 0; i < 400; i++) {
    ASSERT_TRUE(db->Put({.sync = true}, "k" + std::to_string(i % 50), value).ok());
  }
  ASSERT_TRUE(db->CompactAll().ok());
  for (int i = 0; i < 50; i++) {
    auto got = db->Get({}, "k" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << i;
  }
}

TEST(StallShaping, ConcurrentWritersWithFullParallelStack) {
  // The TSan target: the maintenance thread under real concurrent
  // writers.
  MemEnv env;
  Options options;
  options.env = &env;
  options.serialize_access = true;
  options.write_buffer_size = 16 << 10;
  options.slowdown_delay_us = 10;
  auto db = std::move(*DB::Open(options, "/db"));
  constexpr int kThreads = 4, kPerThread = 300;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; t++) {
    writers.emplace_back([&db, t] {
      for (int i = 0; i < kPerThread; i++) {
        std::string key = "t" + std::to_string(t) + ":" + std::to_string(i);
        EXPECT_TRUE(db->Put({.sync = (i % 7 == 0)}, key, "v" + key).ok());
      }
    });
  }
  for (auto& w : writers) w.join();
  ASSERT_TRUE(db->CompactAll().ok());
  for (int t = 0; t < kThreads; t++) {
    for (int i = 0; i < kPerThread; i++) {
      std::string key = "t" + std::to_string(t) + ":" + std::to_string(i);
      auto got = db->Get({}, key);
      ASSERT_TRUE(got.ok()) << key;
      EXPECT_EQ(*got, "v" + key);
    }
  }
}

}  // namespace
}  // namespace lo::storage
