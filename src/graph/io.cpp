#include "graph/io.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace plv::graph {

namespace {

constexpr std::uint64_t kBinaryMagic = 0x504c564745444745ULL;  // "PLVGEDGE"

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw std::runtime_error(what + ": " + path);
}

/// Whole-token parse into `out`: a token with trailing junk ("1x"), a
/// sign an unsigned id cannot hold ("-1") or an out-of-range value fails.
template <typename T>
[[nodiscard]] bool parse_token(const std::string& token, T& out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

EdgeList load_edge_list_text(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("cannot open edge list", path);
  EdgeList edges;
  std::string line;
  std::string u_tok, v_tok, w_tok;
  std::size_t lineno = 0;
  const auto reject = [&](const std::string& what) {
    fail(what + " at line " + std::to_string(lineno), path);
  };
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream ls(line);
    std::uint64_t u = 0, v = 0;
    if (!(ls >> u_tok >> v_tok) || !parse_token(u_tok, u) || !parse_token(v_tok, v)) {
      reject("malformed edge (vertex ids are non-negative integers)");
    }
    if (u >= kInvalidVid || v >= kInvalidVid) {
      reject("vertex id " + std::to_string(std::max(u, v)) + " out of range (ids must be below " +
             std::to_string(kInvalidVid) + ")");
    }
    double w = 1.0;  // optional third column; anything after it is ignored
    if (ls >> w_tok && (!parse_token(w_tok, w) || !std::isfinite(w))) {
      reject("weight '" + w_tok + "' is not a finite number");
    }
    edges.add(static_cast<vid_t>(u), static_cast<vid_t>(v), w);
  }
  return edges;
}

void save_edge_list_text(const EdgeList& edges, const std::string& path) {
  std::ofstream out(path);
  if (!out) fail("cannot write edge list", path);
  out << "# plouvain edge list: u v w\n";
  for (const Edge& e : edges) {
    out << e.u << ' ' << e.v << ' ' << e.w << '\n';
  }
  if (!out) fail("write failed", path);
}

EdgeList load_edge_list_binary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot open edge list", path);
  std::uint64_t magic = 0, count = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof magic);
  in.read(reinterpret_cast<char*>(&count), sizeof count);
  if (!in || magic != kBinaryMagic) fail("bad binary edge list header", path);
  // Checked before allocating, so a count the file cannot hold costs no
  // memory; dividing the file size, unlike multiplying the count, cannot
  // wrap.
  const std::streampos header = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streamoff bytes = in.tellg() - header;
  in.seekg(header);
  if (!in) fail("cannot size binary edge list", path);
  const auto held = static_cast<std::uint64_t>(bytes) / sizeof(Edge);
  if (count != held) {
    fail("binary edge list header claims " + std::to_string(count) +
             " records, but the file holds " + std::to_string(held),
         path);
  }
  std::vector<Edge> edges(count);
  in.read(reinterpret_cast<char*>(edges.data()),
          static_cast<std::streamsize>(count * sizeof(Edge)));
  if (!in) fail("truncated binary edge list", path);
  return EdgeList(std::move(edges));
}

void save_edge_list_binary(const EdgeList& edges, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) fail("cannot write edge list", path);
  const std::uint64_t magic = kBinaryMagic;
  const std::uint64_t count = edges.size();
  out.write(reinterpret_cast<const char*>(&magic), sizeof magic);
  out.write(reinterpret_cast<const char*>(&count), sizeof count);
  out.write(reinterpret_cast<const char*>(edges.edges().data()),
            static_cast<std::streamsize>(count * sizeof(Edge)));
  if (!out) fail("write failed", path);
}

std::vector<vid_t> load_communities(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("cannot open community file", path);
  std::vector<vid_t> labels;
  std::string line;
  std::string tok;
  std::string extra;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::istringstream ls(line);
    if (!(ls >> tok)) continue;  // blank line
    std::uint64_t label = 0;
    if (!parse_token(tok, label) || label >= kInvalidVid || ls >> extra) {
      fail("malformed community label at line " + std::to_string(lineno) +
               " (one integer below " + std::to_string(kInvalidVid) + " per line)",
           path);
    }
    labels.push_back(static_cast<vid_t>(label));
  }
  return labels;
}

void save_communities(const std::vector<vid_t>& labels, const std::string& path) {
  std::ofstream out(path);
  if (!out) fail("cannot write community file", path);
  for (vid_t c : labels) out << c << '\n';
  if (!out) fail("write failed", path);
}

}  // namespace plv::graph
