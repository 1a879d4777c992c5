// The write-ahead eco journal (io/journal.h): record round trips, torn-tail
// detection and repair, checksum validation, header damage, the persisted
// durability flag, and the fault-injected append failure modes the
// SessionManager recovery paths rely on.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/error.h"
#include "core/incremental_engine.h"
#include "io/journal.h"
#include "numeric/fault_injection.h"
#include "scratch_dir.h"

namespace {

using namespace tsv;

std::string fresh_path(const std::string& name) {
  return testutil::scratch_dir(name) + "/session.jrnl";
}

std::uint64_t file_size(const std::string& path) {
  return static_cast<std::uint64_t>(std::filesystem::file_size(path));
}

void corrupt_byte(const std::string& path, std::uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5a);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&byte, 1);
}

io::JournalOpen sample_open() {
  io::JournalOpen open;
  open.placement_payload = std::string("\x01\x02\x00\xff raw bytes", 14);
  open.spacing = 1.25;
  open.margin = 7.5;
  open.lookup = true;
  open.quant_step = 0.125;
  open.surrogate = true;
  return open;
}

io::JournalEco sample_eco(std::uint64_t seq) {
  io::JournalEco eco;
  eco.sequence = seq;
  eco.delta = {core::EcoOp::add({12.0, 10.5}),
               core::EcoOp::move(1, {11.0, 0.5}), core::EcoOp::remove(2)};
  return eco;
}

void expect_eco_equal(const io::JournalEco& got, const io::JournalEco& want) {
  EXPECT_EQ(got.sequence, want.sequence);
  ASSERT_EQ(got.delta.size(), want.delta.size());
  for (std::size_t i = 0; i < want.delta.size(); ++i) {
    EXPECT_EQ(got.delta[i].kind, want.delta[i].kind) << i;
    EXPECT_EQ(got.delta[i].id, want.delta[i].id) << i;
    EXPECT_EQ(std::memcmp(&got.delta[i].center, &want.delta[i].center,
                          sizeof(got.delta[i].center)),
              0)
        << i;
  }
}

TEST(EcoJournal, MissingFileReadsAsCleanEmptyReplay) {
  const io::JournalReplay replay =
      io::EcoJournal::read(fresh_path("missing"));
  EXPECT_FALSE(replay.torn_tail);
  EXPECT_TRUE(replay.records.empty());
  EXPECT_EQ(replay.valid_bytes, 0u);
  EXPECT_TRUE(replay.fsync_on_append());
}

TEST(EcoJournal, AllRecordKindsRoundTripBitwise) {
  const std::string path = fresh_path("roundtrip");
  io::EcoJournal journal(path);
  journal.append(io::JournalRecord::make_open(sample_open()));
  journal.append(io::JournalRecord::make_eco(sample_eco(7)));
  journal.append(io::JournalRecord::make_anchor({0xdeadbeefcafef00dull, 7}));

  const io::JournalReplay replay = io::EcoJournal::read(path);
  EXPECT_FALSE(replay.torn_tail);
  EXPECT_TRUE(replay.fsync_on_append());
  EXPECT_EQ(replay.valid_bytes, file_size(path));
  ASSERT_EQ(replay.records.size(), 3u);

  const io::JournalRecord& open = replay.records[0];
  ASSERT_EQ(open.kind, io::JournalRecord::Kind::kOpen);
  EXPECT_EQ(open.open.placement_payload, sample_open().placement_payload);
  EXPECT_EQ(open.open.spacing, 1.25);
  EXPECT_EQ(open.open.margin, 7.5);
  EXPECT_TRUE(open.open.lookup);
  EXPECT_EQ(open.open.quant_step, 0.125);
  EXPECT_TRUE(open.open.surrogate);

  ASSERT_EQ(replay.records[1].kind, io::JournalRecord::Kind::kEco);
  expect_eco_equal(replay.records[1].eco, sample_eco(7));

  ASSERT_EQ(replay.records[2].kind, io::JournalRecord::Kind::kAnchor);
  EXPECT_EQ(replay.records[2].anchor.snapshot_checksum,
            0xdeadbeefcafef00dull);
  EXPECT_EQ(replay.records[2].anchor.last_sequence, 7u);
}

TEST(EcoJournal, NoFsyncModePersistsInTheHeader) {
  const std::string path = fresh_path("nofsync");
  io::EcoJournal journal(path, /*fsync_on_append=*/false);
  journal.append(io::JournalRecord::make_eco(sample_eco(1)));
  const io::JournalReplay replay = io::EcoJournal::read(path);
  EXPECT_FALSE(replay.torn_tail);
  EXPECT_FALSE(replay.fsync_on_append());  // mode survives without the spec
}

TEST(EcoJournal, TornTailIsDetectedCutBackAndAppendableAgain) {
  const std::string path = fresh_path("torn");
  io::EcoJournal journal(path);
  journal.append(io::JournalRecord::make_eco(sample_eco(1)));
  journal.append(io::JournalRecord::make_eco(sample_eco(2)));
  const std::uint64_t clean_bytes = file_size(path);

  // Simulate a crash mid-append: half a record's worth of garbage.
  {
    std::ofstream f(path, std::ios::app | std::ios::binary);
    f.write("\x02garbage", 8);
  }
  io::JournalReplay replay = io::EcoJournal::read(path);
  EXPECT_TRUE(replay.torn_tail);
  EXPECT_FALSE(replay.torn_reason.empty());
  EXPECT_EQ(replay.valid_bytes, clean_bytes);  // the prefix is authoritative
  ASSERT_EQ(replay.records.size(), 2u);
  expect_eco_equal(replay.records[1].eco, sample_eco(2));

  io::EcoJournal::truncate_to_valid(path, replay);
  EXPECT_EQ(file_size(path), clean_bytes);
  journal.append(io::JournalRecord::make_eco(sample_eco(3)));
  replay = io::EcoJournal::read(path);
  EXPECT_FALSE(replay.torn_tail);
  ASSERT_EQ(replay.records.size(), 3u);
  expect_eco_equal(replay.records[2].eco, sample_eco(3));
}

TEST(EcoJournal, ChecksumMismatchStopsAtTheDamagedRecord) {
  const std::string path = fresh_path("bitrot");
  io::EcoJournal journal(path);
  journal.append(io::JournalRecord::make_eco(sample_eco(1)));
  const std::uint64_t first_end = file_size(path);
  journal.append(io::JournalRecord::make_eco(sample_eco(2)));

  corrupt_byte(path, first_end + 10);  // inside the second record's payload
  const io::JournalReplay replay = io::EcoJournal::read(path);
  EXPECT_TRUE(replay.torn_tail);
  EXPECT_EQ(replay.valid_bytes, first_end);
  ASSERT_EQ(replay.records.size(), 1u);
  expect_eco_equal(replay.records[0].eco, sample_eco(1));
}

TEST(EcoJournal, DamagedHeaderTruncatesToEmptyAndHeals) {
  const std::string path = fresh_path("header");
  {
    std::ofstream f(path, std::ios::binary);
    f.write("NOTAJRNL??????", 14);  // wrong magic, short header
  }
  io::JournalReplay replay = io::EcoJournal::read(path);
  EXPECT_TRUE(replay.torn_tail);
  EXPECT_TRUE(replay.records.empty());
  EXPECT_EQ(replay.valid_bytes, 0u);

  io::EcoJournal::truncate_to_valid(path, replay);
  EXPECT_EQ(file_size(path), 0u);
  io::EcoJournal journal(path);
  journal.append(io::JournalRecord::make_eco(sample_eco(5)));  // new header
  replay = io::EcoJournal::read(path);
  EXPECT_FALSE(replay.torn_tail);
  ASSERT_EQ(replay.records.size(), 1u);
  expect_eco_equal(replay.records[0].eco, sample_eco(5));
}

TEST(EcoJournal, ResetToAnchorCompactsToASingleRecord) {
  const std::string path = fresh_path("compact");
  io::EcoJournal journal(path, /*fsync_on_append=*/false);
  journal.append(io::JournalRecord::make_open(sample_open()));
  journal.append(io::JournalRecord::make_eco(sample_eco(1)));
  journal.append(io::JournalRecord::make_eco(sample_eco(2)));
  journal.reset_to_anchor({0x1234u, 2});

  const io::JournalReplay replay = io::EcoJournal::read(path);
  EXPECT_FALSE(replay.torn_tail);
  EXPECT_FALSE(replay.fsync_on_append());  // flags survive the rewrite
  ASSERT_EQ(replay.records.size(), 1u);
  ASSERT_EQ(replay.records[0].kind, io::JournalRecord::Kind::kAnchor);
  EXPECT_EQ(replay.records[0].anchor.snapshot_checksum, 0x1234u);
  EXPECT_EQ(replay.records[0].anchor.last_sequence, 2u);

  journal.remove();
  EXPECT_FALSE(std::filesystem::exists(path));
  journal.remove();  // idempotent
}

TEST(EcoJournal, InjectedWriteFailThrowsAndLeavesTheFileIntact) {
  const std::string path = fresh_path("writefail");
  io::EcoJournal journal(path);
  journal.append(io::JournalRecord::make_eco(sample_eco(1)));
  const std::uint64_t clean_bytes = file_size(path);

  fault::arm(fault::Site::kJournalWriteFail);
  EXPECT_THROW(journal.append(io::JournalRecord::make_eco(sample_eco(2))),
               IoCorruptionError);
  fault::disarm_all();

  // The failure happened before any byte landed: no torn tail to repair.
  EXPECT_EQ(file_size(path), clean_bytes);
  const io::JournalReplay replay = io::EcoJournal::read(path);
  EXPECT_FALSE(replay.torn_tail);
  ASSERT_EQ(replay.records.size(), 1u);
}

TEST(EcoJournal, InjectedTornAppendIsRepairedByTruncate) {
  const std::string path = fresh_path("torn_inject");
  io::EcoJournal journal(path);
  journal.append(io::JournalRecord::make_eco(sample_eco(1)));
  const std::uint64_t clean_bytes = file_size(path);

  fault::arm(fault::Site::kJournalTornTail);
  EXPECT_THROW(journal.append(io::JournalRecord::make_eco(sample_eco(2))),
               IoCorruptionError);
  fault::disarm_all();
  EXPECT_GT(file_size(path), clean_bytes);  // half a record is buried there

  io::JournalReplay replay = io::EcoJournal::read(path);
  EXPECT_TRUE(replay.torn_tail);
  EXPECT_EQ(replay.valid_bytes, clean_bytes);
  ASSERT_EQ(replay.records.size(), 1u);

  io::EcoJournal::truncate_to_valid(path, replay);
  journal.append(io::JournalRecord::make_eco(sample_eco(2)));
  replay = io::EcoJournal::read(path);
  EXPECT_FALSE(replay.torn_tail);
  ASSERT_EQ(replay.records.size(), 2u);
  expect_eco_equal(replay.records[1].eco, sample_eco(2));
}

}  // namespace
