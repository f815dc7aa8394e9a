// Tests for the streaming sort driver (core/sort_stream.hpp, DESIGN.md §9):
// records in through one buffer, a sort step, sorted records out through
// the same buffer, with the fused StreamCheck refusing a wrong output; and
// sort_file's commit, where a failure leaves the destination as it was and
// no `<out>.tmp` behind.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/balance_sort.hpp"
#include "core/sort_stream.hpp"
#include "util/workload.hpp"

namespace balsort {
namespace {

constexpr std::uint32_t kD = 4, kB = 16;
constexpr std::uint64_t kM = 1024;

using TestSort = std::function<BlockRun(DiskArray&, const BlockRun&)>;

BlockRun balance(DiskArray& disks, const BlockRun& in) {
    return balance_sort(disks, in,
                        PdmConfig{.n = in.n_records, .m = kM, .d = kD, .b = kB, .p = 1});
}

struct Streamed {
    std::vector<Record> out;
    std::uint64_t read_steps = 0; ///< steps charged after the sort step
    int sorts = 0;
};

/// Stream `input` through sort_stream with a `buf_records` buffer.
Streamed stream(const std::vector<Record>& input, std::size_t buf_records, const TestSort& sort,
                StreamCheck* check) {
    DiskArray disks(kD, kB);
    std::vector<Record> buf(buf_records);
    Streamed s;
    std::size_t pos = 0;
    std::uint64_t steps_after_sort = 0;
    sort_stream(
        disks, input.size(), buf,
        [&](std::span<Record> chunk) {
            std::copy_n(input.begin() + static_cast<std::ptrdiff_t>(pos), chunk.size(),
                        chunk.begin());
            pos += chunk.size();
        },
        [&](const BlockRun& in) {
            ++s.sorts;
            BlockRun out = sort(disks, in);
            steps_after_sort = disks.stats().io_steps();
            return out;
        },
        [&](std::span<const Record> chunk) {
            EXPECT_LE(chunk.size(), buf_records);
            s.out.insert(s.out.end(), chunk.begin(), chunk.end());
        },
        check);
    s.read_steps = disks.stats().io_steps() - steps_after_sort;
    return s;
}

/// The reason the checked stream threw, or "" when it returned.
std::string failure_of(const std::vector<Record>& input, const TestSort& sort) {
    StreamCheck check;
    try {
        stream(input, kM, sort, &check);
    } catch (const std::runtime_error& e) {
        return e.what();
    }
    return {};
}

TEST(SortStream, SortsAndChecksAtAnyBufferSize) {
    const auto input = generate(Workload::kZipf, 10000, 3);
    for (const std::size_t buf : {std::size_t{1}, std::size_t{kB - 1}, std::size_t{kM},
                                  input.size()}) {
        StreamCheck check;
        const Streamed s = stream(input, buf, balance, &check);
        EXPECT_EQ(s.sorts, 1);
        EXPECT_TRUE(is_sorted_permutation_of(input, s.out)) << "buffer " << buf;
        EXPECT_EQ(check.failure(), "");
    }
}

TEST(SortStream, EmptyInputNeverCallsTheSort) {
    StreamCheck check;
    const Streamed s = stream({}, 0, balance, &check);
    EXPECT_EQ(s.sorts, 0);
    EXPECT_TRUE(s.out.empty());
}

// A read-back buffer of whole stripes charges exactly the steps of one
// whole-run read; the sort service relies on it for byte-identical
// per-job steps.
TEST(SortStream, StripeAlignedReadBackCostsAWholeRunRead) {
    const auto input = generate(Workload::kUniform, 10000 + 7, 4);
    const Streamed whole = stream(input, input.size(), balance, nullptr);
    for (const std::size_t stripes : {1, 2, 16}) {
        const Streamed s = stream(input, stripes * kD * kB, balance, nullptr);
        EXPECT_EQ(s.read_steps, whole.read_steps) << stripes << " stripes";
        EXPECT_EQ(s.out, whole.out);
    }
}

TEST(SortStream, RefusesAnUnsortedOutput) {
    const auto input = generate(Workload::kUniform, 5000, 5);
    // The input, copied to a run of its own, unsorted.
    const std::string why = failure_of(input, [](DiskArray& disks, const BlockRun& in) {
        return write_striped(disks, read_run(disks, in));
    });
    EXPECT_NE(why.find("output is not sorted"), std::string::npos) << why;
}

TEST(SortStream, RefusesAnOutputWithOneBlockOverwritten) {
    const auto input = generate(Workload::kUniform, 5000, 6);
    const std::string why = failure_of(input, [](DiskArray& disks, const BlockRun& in) {
        BlockRun out = balance(disks, in);
        // Overwrite one block with one payload bit flipped: keys stay in
        // order, the multiset does not.
        const std::span<const BlockOp> op(&out.blocks[11], 1);
        std::vector<Record> block(kB);
        disks.read_batch(op, block);
        block[0].payload ^= 1;
        disks.write_step(op, block);
        return out;
    });
    EXPECT_NE(why.find("fingerprint mismatch"), std::string::npos) << why;
}

class SortFile : public ::testing::Test {
  protected:
    void SetUp() override {
        dir_ = std::filesystem::temp_directory_path() /
               ("balsort_sort_file_" + std::to_string(::getpid()) + "_" +
                ::testing::UnitTest::GetInstance()->current_test_info()->name());
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string path(const std::string& name) const { return (dir_ / name).string(); }

    void write_file(const std::string& name, const std::string& bytes) const {
        std::ofstream(path(name), std::ios::binary) << bytes;
    }
    std::string read_file(const std::string& name) const {
        std::ifstream f(path(name), std::ios::binary);
        return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
    }

    /// The reason sort_file threw for `in`; the destination must be
    /// untouched, no `.tmp` left, and the sort never called.
    std::string refusal(const std::string& in) {
        write_file("out.bin", "untouched");
        DiskArray disks(kD, kB);
        bool sorted = false;
        std::string why;
        try {
            sort_file(path(in), path("out.bin"), disks, kM, [&](const BlockRun& run) {
                sorted = true;
                return balance(disks, run);
            });
        } catch (const std::runtime_error& e) {
            why = e.what();
        }
        EXPECT_FALSE(sorted);
        EXPECT_EQ(read_file("out.bin"), "untouched");
        EXPECT_FALSE(std::filesystem::exists(path("out.bin.tmp")));
        return why;
    }

    std::filesystem::path dir_;
};

TEST_F(SortFile, SortsAFileThroughTheBuffer) {
    const auto input = generate(Workload::kZipf, 3000, 8);
    write_file("in.bin", std::string(reinterpret_cast<const char*>(input.data()),
                                     input.size() * sizeof(Record)));
    DiskArray disks(kD, kB);
    sort_file(path("in.bin"), path("out.bin"), disks, kM,
              [&](const BlockRun& run) { return balance(disks, run); });
    const std::string bytes = read_file("out.bin");
    ASSERT_EQ(bytes.size(), input.size() * sizeof(Record));
    std::vector<Record> out(input.size());
    std::copy_n(bytes.data(), bytes.size(), reinterpret_cast<char*>(out.data()));
    EXPECT_TRUE(is_sorted_permutation_of(input, out));
    EXPECT_FALSE(std::filesystem::exists(path("out.bin.tmp")));
}

TEST_F(SortFile, RaggedInputIsRefused) {
    write_file("ragged.bin", std::string(16 * 100 + 3, 'x'));
    const std::string why = refusal("ragged.bin");
    EXPECT_NE(why.find("is not a multiple of 16 bytes"), std::string::npos) << why;
}

TEST_F(SortFile, MissingInputIsRefused) {
    const std::string why = refusal("no_such_input.bin");
    EXPECT_NE(why.find("cannot open"), std::string::npos) << why;
    EXPECT_NE(why.find("no_such_input.bin"), std::string::npos) << why;
}

TEST_F(SortFile, FailedCheckLeavesTheDestination) {
    const auto input = generate(Workload::kUniform, 3000, 9);
    write_file("in.bin", std::string(reinterpret_cast<const char*>(input.data()),
                                     input.size() * sizeof(Record)));
    write_file("out.bin", "untouched");
    DiskArray disks(kD, kB);
    EXPECT_THROW(sort_file(path("in.bin"), path("out.bin"), disks, kM,
                           [&](const BlockRun& run) {
                               return write_striped(disks, read_run(disks, run));
                           }),
                 std::runtime_error);
    EXPECT_EQ(read_file("out.bin"), "untouched");
    EXPECT_FALSE(std::filesystem::exists(path("out.bin.tmp")));
}

} // namespace
} // namespace balsort
