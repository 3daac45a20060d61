// Tests for matrix/instance/output serialization: exact round-trips and
// malformed-input rejection.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "tmwia/io/serialize.hpp"
#include "tmwia/matrix/generators.hpp"

namespace tmwia::io {
namespace {

matrix::PreferenceMatrix sample_matrix(std::size_t n, std::size_t m, std::uint64_t seed) {
  rng::Rng rng(seed);
  return matrix::uniform_random(n, m, rng).matrix;
}

TEST(SerializeText, RoundTrip) {
  const auto m = sample_matrix(17, 70, 1);  // odd sizes cross word edges
  std::stringstream ss;
  save_matrix_text(m, ss);
  const auto back = load_matrix_text(ss);
  ASSERT_EQ(back.players(), m.players());
  ASSERT_EQ(back.objects(), m.objects());
  for (matrix::PlayerId p = 0; p < m.players(); ++p) {
    EXPECT_EQ(back.row(p), m.row(p));
  }
}

TEST(SerializeText, RejectsBadHeader) {
  std::stringstream ss("NOT A HEADER\n1 1\n0\n");
  EXPECT_THROW(load_matrix_text(ss), std::runtime_error);
}

TEST(SerializeText, RejectsRowLengthMismatch) {
  std::stringstream ss("TMWIA/1 text\n1 4\n01\n");
  EXPECT_THROW(load_matrix_text(ss), std::runtime_error);
}

TEST(SerializeText, RejectsANonBitCharacter) {
  for (const char* row : {"0x1", "012", "0 1"}) {
    std::stringstream ss(std::string("TMWIA/1 text\n1 3\n") + row + "\n");
    EXPECT_THROW(load_matrix_text(ss), std::runtime_error) << row;
  }
}

TEST(SerializeText, RejectsTruncated) {
  std::stringstream ss("TMWIA/1 text\n3 4\n0101\n");
  EXPECT_THROW(load_matrix_text(ss), std::runtime_error);
}

TEST(SerializeText, RejectsHeaderBeyondRows) {
  // The header's player count must not allocate before the rows arrive.
  std::stringstream ss("TMWIA/1 text\n4000000000 1\n");
  EXPECT_THROW(load_matrix_text(ss), std::runtime_error);
}

TEST(SerializeText, RejectsMorePlayersThanIds) {
  // Refused at the header: player ids are 32-bit.
  std::stringstream ss("TMWIA/1 text\n4294967296 1\n0\n");
  try {
    (void)load_matrix_text(ss);
    FAIL() << "expected a serialize error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("32-bit"), std::string::npos) << e.what();
  }
}

/// No command can use an instance without players or objects, so the
/// reader refuses both shapes at the header.
TEST(SerializeInstance, RejectsZeroPlayers) {
  std::stringstream ss("TMWIA/1 text\n0 4\ncommunities 0\n");
  try {
    (void)load_instance(ss);
    FAIL() << "expected a serialize error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("0 players"), std::string::npos) << e.what();
  }
}

TEST(SerializeInstance, RejectsZeroObjects) {
  std::stringstream ss("TMWIA/1 text\n2 0\n\n\ncommunities 0\n");
  try {
    (void)load_instance(ss);
    FAIL() << "expected a serialize error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("0 objects"), std::string::npos) << e.what();
  }
}

TEST(SerializeInstance, RoundTripWithCommunities) {
  rng::Rng rng(3);
  const auto inst = matrix::planted_communities(40, 64, {{0.3, 1}, {0.3, 2}}, rng);
  std::stringstream ss;
  save_instance(inst, ss);
  const auto back = load_instance(ss);
  EXPECT_EQ(back.communities, inst.communities);
  EXPECT_EQ(back.centers, inst.centers);
  for (matrix::PlayerId p = 0; p < 40; ++p) {
    EXPECT_EQ(back.matrix.row(p), inst.matrix.row(p));
  }
}

TEST(SerializeInstance, NoCommunities) {
  rng::Rng rng(4);
  const auto inst = matrix::uniform_random(5, 8, rng);
  std::stringstream ss;
  save_instance(inst, ss);
  const auto back = load_instance(ss);
  EXPECT_TRUE(back.communities.empty());
}

// A 2x3 instance with one community and one center line.
std::string instance_text(const std::string& community, const std::string& center) {
  return "TMWIA/1 text\n2 3\n010\n110\ncommunities 1\ncommunity " + community +
         "\ncenter " + center + "\n";
}

TEST(SerializeInstance, RejectsCommunityIdOutOfRange) {
  std::stringstream ss(instance_text("0 70000000", "010"));
  EXPECT_THROW(load_instance(ss), std::runtime_error);
}

TEST(SerializeInstance, RejectsCommunityIdBeyond32Bits) {
  // Used to truncate the community to {0} silently.
  std::stringstream ss(instance_text("0 4294967297", "010"));
  EXPECT_THROW(load_instance(ss), std::runtime_error);
}

TEST(SerializeInstance, RejectsUnparsableCommunityId) {
  for (const char* bad : {"0 x", "0 -1", "0 1x", "0 +1"}) {
    std::stringstream ss(instance_text(bad, "010"));
    EXPECT_THROW(load_instance(ss), std::runtime_error) << bad;
  }
}

TEST(SerializeInstance, RejectsCenterWidthMismatch) {
  for (const char* bad : {"0101111", "01"}) {
    std::stringstream ss(instance_text("0 1", bad));
    EXPECT_THROW(load_instance(ss), std::runtime_error) << bad;
  }
}

TEST(SerializeInstance, RejectsANonBitCenter) {
  std::stringstream ss(instance_text("0 1", "0z1"));
  EXPECT_THROW(load_instance(ss), std::runtime_error);
}

TEST(SerializeOutputs, RoundTrip) {
  std::vector<bits::BitVector> outs{bits::BitVector::from_string("0101"),
                                    bits::BitVector::from_string("1111")};
  std::stringstream ss;
  save_outputs(outs, ss);
  EXPECT_EQ(load_outputs(ss, 4), outs);
}

TEST(SerializeOutputs, RejectsHeaderBeyondRows) {
  std::stringstream ss("outputs 4000000000\n0101\n");
  EXPECT_THROW(load_outputs(ss, 4), std::runtime_error);
}

TEST(SerializeOutputs, RejectsARowOfTheWrongWidth) {
  for (const char* row : {"010", "01011", ""}) {
    std::stringstream ss(std::string("outputs 2\n0101\n") + row + "\n");
    try {
      (void)load_outputs(ss, 4);
      FAIL() << "expected a serialize error for '" << row << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("output row 1 has"), std::string::npos) << e.what();
    }
  }
}

TEST(SerializeOutputs, RejectsANonBitCharacter) {
  std::stringstream ss("outputs 1\n01x1\n");
  EXPECT_THROW(load_outputs(ss, 4), std::runtime_error);
}

TEST(SerializeFile, MissingFileThrows) {
  EXPECT_THROW(load_instance_file("/tmp/definitely_missing_tmwia_file"), std::runtime_error);
}

}  // namespace
}  // namespace tmwia::io
