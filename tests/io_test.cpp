#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

namespace plv::graph {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("plv_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// Writes `text` as an edge list and returns the loader's error message
  /// ("" when it loads).
  [[nodiscard]] std::string load_error(const std::string& text) const {
    {
      std::ofstream out(path("g.txt"));
      out << text;
    }
    try {
      (void)load_edge_list_text(path("g.txt"));
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  }

  /// Overwrites the record count in the header of binary edge list `name`.
  void set_binary_count(const std::string& name, std::uint64_t count) const {
    std::fstream f(path(name), std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(sizeof(std::uint64_t));  // past the magic
    f.write(reinterpret_cast<const char*>(&count), sizeof count);
  }

  std::filesystem::path dir_;
};

TEST_F(IoTest, TextRoundTrip) {
  EdgeList edges;
  edges.add(0, 1, 1.5);
  edges.add(2, 3, 2.0);
  edges.add(4, 4, 0.5);
  save_edge_list_text(edges, path("g.txt"));
  const EdgeList loaded = load_edge_list_text(path("g.txt"));
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded.edges()[0].u, 0u);
  EXPECT_DOUBLE_EQ(loaded.edges()[0].w, 1.5);
  EXPECT_EQ(loaded.edges()[2].v, 4u);
}

TEST_F(IoTest, TextDefaultsWeightToOne) {
  std::ofstream out(path("g.txt"));
  out << "# comment line\n% another comment\n0 1\n1 2 5.5\n";
  out.close();
  const EdgeList loaded = load_edge_list_text(path("g.txt"));
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_DOUBLE_EQ(loaded.edges()[0].w, 1.0);
  EXPECT_DOUBLE_EQ(loaded.edges()[1].w, 5.5);
}

TEST_F(IoTest, TextRejectsMalformedLines) {
  std::ofstream out(path("bad.txt"));
  out << "0 1\nnot an edge\n";
  out.close();
  EXPECT_THROW(load_edge_list_text(path("bad.txt")), std::runtime_error);
}

TEST_F(IoTest, TextRejectsAWeightThatIsNotANumber) {
  const std::string err = load_error("0 1 abc\n1 2 1\n");
  EXPECT_NE(err.find("line 1"), std::string::npos) << err;
  EXPECT_NE(err.find("abc"), std::string::npos) << err;
  EXPECT_NE(load_error("0 1 2\n1 2 1.5x\n").find("line 2"), std::string::npos);
}

TEST_F(IoTest, TextRejectsNonFiniteWeights) {
  for (const char* w : {"nan", "NaN", "inf", "-inf", "infinity", "1e400"}) {
    const std::string err = load_error(std::string("0 1 ") + w + "\n");
    EXPECT_NE(err.find("line 1"), std::string::npos) << w << ": " << err;
  }
}

TEST_F(IoTest, TextRejectsIdsAtOrAboveInvalidVid) {
  // 4294967297 used to wrap to vertex 1, and kInvalidVid itself is the
  // engine's "no vertex" sentinel.
  const std::string err = load_error("0 1 1\n0 4294967297 1\n");
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
  EXPECT_NE(load_error("4294967295 0\n").find("line 1"), std::string::npos);
  EXPECT_EQ(load_error("4294967294 0\n"), "");
}

TEST_F(IoTest, TextRejectsNegativeIds) {
  const std::string err = load_error("0 -1 1\n1 2 1\n");
  EXPECT_NE(err.find("line 1"), std::string::npos) << err;
}

TEST_F(IoTest, TextIgnoresColumnsAfterTheWeight) {
  {
    std::ofstream out(path("g.txt"));
    out << "0 1 2.5 1234567890 comment\n";
  }
  const EdgeList loaded = load_edge_list_text(path("g.txt"));
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_DOUBLE_EQ(loaded.edges()[0].w, 2.5);
}

TEST_F(IoTest, MissingFileThrows) {
  EXPECT_THROW(load_edge_list_text(path("nope.txt")), std::runtime_error);
  EXPECT_THROW(load_edge_list_binary(path("nope.bin")), std::runtime_error);
  EXPECT_THROW(load_communities(path("nope.cm")), std::runtime_error);
}

TEST_F(IoTest, BinaryRoundTripExact) {
  EdgeList edges;
  for (vid_t i = 0; i < 1000; ++i) edges.add(i, i + 1, 0.25 * i);
  save_edge_list_binary(edges, path("g.bin"));
  const EdgeList loaded = load_edge_list_binary(path("g.bin"));
  ASSERT_EQ(loaded.size(), edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    EXPECT_EQ(loaded.edges()[i], edges.edges()[i]);
  }
}

TEST_F(IoTest, BinaryRejectsBadMagic) {
  std::ofstream out(path("junk.bin"), std::ios::binary);
  out << "this is not a plouvain file at all.....";
  out.close();
  EXPECT_THROW(load_edge_list_binary(path("junk.bin")), std::runtime_error);
}

TEST_F(IoTest, BinaryRejectsACountTheFileCannotHold) {
  const auto load_error = [&](const std::string& name) -> std::string {
    try {
      (void)load_edge_list_binary(path(name));
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  };
  // A bare header claiming 2^62 records used to escape as std::length_error
  // from the vector it sized.
  save_edge_list_binary(EdgeList{}, path("empty.bin"));
  set_binary_count("empty.bin", std::uint64_t{1} << 62);
  const std::string huge = load_error("empty.bin");
  EXPECT_NE(huge.find("claims 4611686018427387904 records"), std::string::npos) << huge;
  EXPECT_NE(huge.find("holds 0"), std::string::npos) << huge;
  EXPECT_NE(huge.find("empty.bin"), std::string::npos) << huge;
  // One record more than the file holds.
  EdgeList edges;
  edges.add(0, 1, 1.0);
  edges.add(1, 2, 2.0);
  edges.add(2, 0, 3.0);
  save_edge_list_binary(edges, path("three.bin"));
  set_binary_count("three.bin", 4);
  const std::string over = load_error("three.bin");
  EXPECT_NE(over.find("claims 4 records"), std::string::npos) << over;
  EXPECT_NE(over.find("holds 3"), std::string::npos) << over;
  set_binary_count("three.bin", 3);
  EXPECT_EQ(load_error("three.bin"), "");
}

TEST_F(IoTest, CommunitiesRejectMalformedAndOutOfRangeLabels) {
  const auto load_error = [&](const std::string& text) -> std::string {
    {
      std::ofstream out(path("c.txt"));
      out << text;
    }
    try {
      (void)load_communities(path("c.txt"));
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  };
  // Used to load as the two labels before the bad token.
  EXPECT_NE(load_error("0\n1\nx\n2\n").find("line 3"), std::string::npos);
  // Used to wrap to label 5.
  EXPECT_NE(load_error("4294967301\n").find("line 1"), std::string::npos);
  // kInvalidVid is the engine's "no vertex" sentinel.
  EXPECT_NE(load_error("0\n4294967295\n").find("line 2"), std::string::npos);
  EXPECT_NE(load_error("0\n-1\n").find("line 2"), std::string::npos);
  EXPECT_NE(load_error("0 1\n").find("line 1"), std::string::npos);
  EXPECT_EQ(load_error("0\n\n4294967294\n"), "");
}

TEST_F(IoTest, CommunityRoundTrip) {
  const std::vector<vid_t> labels = {0, 0, 1, 2, 1, 0};
  save_communities(labels, path("c.txt"));
  EXPECT_EQ(load_communities(path("c.txt")), labels);
}

}  // namespace
}  // namespace plv::graph
