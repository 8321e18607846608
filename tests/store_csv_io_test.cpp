// store::csv_io: export/import round-trip plus the checked-parser contract
// — malformed CSV (bad hex fingerprint, missing fields, integer/double
// overflow, junk suffixes, unknown record types) raises common::Error with
// row/column context instead of leaking std::invalid_argument /
// std::out_of_range from std::stoull, and a bad row never partially
// applies.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "gemm/config.hpp"
#include "perfmodel/device_spec.hpp"
#include "store/csv_io.hpp"
#include "store/selection_store.hpp"

namespace aks::store {
namespace {

std::filesystem::path temp_store(const std::string& name) {
  const auto path =
      std::filesystem::temp_directory_path() / ("aks_csvio_" + name);
  std::filesystem::remove(path);
  return path;
}

SelectionRecord make_record(std::uint64_t fingerprint, gemm::GemmShape shape,
                            std::uint32_t config_index) {
  SelectionRecord record;
  record.device_fingerprint = fingerprint;
  record.shape = shape;
  record.config_index = config_index;
  record.warmup_seconds = 0.25;
  record.sweeps = 3;
  record.quarantined_candidates = 1;
  record.source = Source::kOnlineTuner;
  record.cert_digest = 0xfeedface12345678ull;
  return record;
}

/// A valid 12-field selection row to mutate per test case.
std::string valid_selection_row() {
  return "selection,00000000000000aa,64,32,128,5," +
         gemm::enumerate_configs()[5].name() +
         ",0.25,3,1,online-tuner,0000000000000000";
}

TEST(StoreCsv, ExportImportRoundTrips) {
  const auto device = perf::DeviceSpec::amd_r9_nano();
  const auto src_path = temp_store("roundtrip_src");
  const auto dst_path = temp_store("roundtrip_dst");

  SelectionStore src(src_path);
  src.put_device(device);
  ASSERT_TRUE(src.put(make_record(device.fingerprint(), {64, 32, 128}, 5)));
  ASSERT_TRUE(src.put(make_record(device.fingerprint(), {256, 64, 64}, 9)));

  std::ostringstream csv;
  export_store_csv(src, csv);

  SelectionStore dst(dst_path);
  std::istringstream in(csv.str());
  EXPECT_EQ(import_store_csv(in, dst), 3u);  // 1 device + 2 selections
  EXPECT_EQ(dst.selections(), src.selections());
  EXPECT_EQ(dst.devices(), src.devices());

  std::filesystem::remove(src_path);
  std::filesystem::remove(dst_path);
}

TEST(StoreCsv, CommentsAndBlankLinesSkipped) {
  const auto path = temp_store("comments");
  SelectionStore store(path);
  std::istringstream in("# header comment\n\n" + valid_selection_row() +
                        "\n");
  EXPECT_EQ(import_store_csv(in, store), 1u);
  std::filesystem::remove(path);
}

TEST(StoreCsv, BadHexFingerprintRaisesWithContext) {
  const auto path = temp_store("badhex");
  SelectionStore store(path);
  auto row = valid_selection_row();
  row.replace(row.find("00000000000000aa"), 16, "zz00000000000000");
  std::istringstream in(row);
  try {
    import_store_csv(in, store);
    FAIL() << "expected common::Error";
  } catch (const common::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 1"), std::string::npos) << what;
    EXPECT_NE(what.find("fingerprint"), std::string::npos) << what;
  }
  EXPECT_TRUE(store.selections().empty());
  std::filesystem::remove(path);
}

TEST(StoreCsv, TrailingGarbageInNumberRejected) {
  const auto path = temp_store("garbage");
  SelectionStore store(path);
  auto row = valid_selection_row();
  row.replace(row.find(",64,"), 4, ",64abc,");
  std::istringstream in(row);
  EXPECT_THROW(import_store_csv(in, store), common::Error);
  std::filesystem::remove(path);
}

TEST(StoreCsv, MissingFieldRaises) {
  const auto path = temp_store("missing");
  SelectionStore store(path);
  auto row = valid_selection_row();
  row.erase(row.rfind(','));  // drop the final cert-digest field
  std::istringstream in(row);
  try {
    import_store_csv(in, store);
    FAIL() << "expected common::Error";
  } catch (const common::Error& e) {
    EXPECT_NE(std::string(e.what()).find("12 fields"), std::string::npos)
        << e.what();
  }
  std::filesystem::remove(path);
}

TEST(StoreCsv, Uint64OverflowRaisesNotStdOutOfRange) {
  const auto path = temp_store("overflow64");
  SelectionStore store(path);
  auto row = valid_selection_row();
  row.replace(row.find(",64,"), 4, ",99999999999999999999999999,");
  std::istringstream in(row);
  try {
    import_store_csv(in, store);
    FAIL() << "expected common::Error";
  } catch (const common::Error& e) {
    EXPECT_NE(std::string(e.what()).find("overflow"), std::string::npos)
        << e.what();
  }
  std::filesystem::remove(path);
}

TEST(StoreCsv, Uint32OverflowInSweepsRaises) {
  const auto path = temp_store("overflow32");
  SelectionStore store(path);
  auto row = valid_selection_row();
  row.replace(row.find(",0.25,3,"), 8, ",0.25,4294967296,");
  std::istringstream in(row);
  EXPECT_THROW(import_store_csv(in, store), common::Error);
  std::filesystem::remove(path);
}

TEST(StoreCsv, DoubleOverflowRaises) {
  const auto path = temp_store("overflowd");
  SelectionStore store(path);
  auto row = valid_selection_row();
  row.replace(row.find(",0.25,"), 6, ",1e400000,");
  std::istringstream in(row);
  EXPECT_THROW(import_store_csv(in, store), common::Error);
  std::filesystem::remove(path);
}

TEST(StoreCsv, OutOfRangeConfigIndexRaises) {
  const auto path = temp_store("badconfig");
  SelectionStore store(path);
  auto row = valid_selection_row();
  row.replace(row.find(",5,"), 3, ",100000,");
  std::istringstream in(row);
  try {
    import_store_csv(in, store);
    FAIL() << "expected common::Error";
  } catch (const common::Error& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos)
        << e.what();
  }
  std::filesystem::remove(path);
}

// A zero dimension is a shape select() can never request; storing it would
// let warm_start pre-seed and count it.
TEST(StoreCsv, ZeroDimensionRaisesNamingTheLine) {
  const auto path = temp_store("zerodim");
  SelectionStore store(path);
  auto row = valid_selection_row();
  row.replace(row.find(",64,"), 4, ",0,");
  std::istringstream in(valid_selection_row() + "\n" + row + "\n");
  try {
    import_store_csv(in, store);
    FAIL() << "expected common::Error";
  } catch (const common::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("invalid GEMM shape 0x32x128"), std::string::npos)
        << what;
  }
  std::filesystem::remove(path);
}

TEST(StoreCsv, OverflowingShapeRaises) {
  const auto path = temp_store("overflowshape");
  SelectionStore store(path);
  auto row = valid_selection_row();
  row.replace(row.find(",64,32,128,"), 11,
              ",4294967296,4294967296,4294967296,");
  std::istringstream in(row);
  try {
    import_store_csv(in, store);
    FAIL() << "expected common::Error";
  } catch (const common::Error& e) {
    EXPECT_NE(std::string(e.what()).find("invalid GEMM shape"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(store.stats().selections, 0u);
  std::filesystem::remove(path);
}

TEST(StoreCsv, UnknownRecordTypeNamesTheLine) {
  const auto path = temp_store("unknown");
  SelectionStore store(path);
  std::istringstream in(valid_selection_row() + "\nwidget,1,2,3\n");
  try {
    import_store_csv(in, store);
    FAIL() << "expected common::Error";
  } catch (const common::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("widget"), std::string::npos) << what;
  }
  std::filesystem::remove(path);
}

TEST(StoreCsv, DeviceRowFieldCountChecked) {
  const auto path = temp_store("devrow");
  SelectionStore store(path);
  std::istringstream in("device,00000000000000aa,short\n");
  EXPECT_THROW(import_store_csv(in, store), common::Error);
  std::filesystem::remove(path);
}

TEST(StoreCsv, FingerprintHexZeroPads) {
  EXPECT_EQ(fingerprint_hex(0xaaull), "00000000000000aa");
  EXPECT_EQ(fingerprint_hex(0), "0000000000000000");
  EXPECT_EQ(fingerprint_hex(~0ull), "ffffffffffffffff");
}

TEST(StoreCsv, SourceNamesRoundTrip) {
  for (const Source source :
       {Source::kOnlineTuner, Source::kLearnedSelector, Source::kTransfer,
        Source::kImported}) {
    EXPECT_EQ(source_from_string(to_string(source)), source);
  }
  EXPECT_EQ(source_from_string("hand-written"), Source::kImported);
}

}  // namespace
}  // namespace aks::store
