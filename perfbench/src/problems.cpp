#include "problems.hpp"

#include <algorithm>
#include <set>
#include <vector>

namespace perfbench {

const char* const kPaperProgram =
    "index a, b, c, d = 480\n"
    "index e, f = 64\n"
    "index i, j, k, l = 32\n"
    "T1[b,c,d,f] = sum[e,l] B[b,e,f,l] * D[c,d,e,l]\n"
    "T2[b,c,j,k] = sum[d,f] T1[b,c,d,f] * C[d,f,j,k]\n"
    "S[a,b,i,j]  = sum[c,k] T2[b,c,j,k] * A[a,c,i,k]\n";

const char* const kForestProgram =
    "index a, b, c = 96\n"
    "index p, q = 48\n"
    "R[a,c] = sum[b] X[a,b] * Y[b,c]\n"
    "Q[a,q] = sum[p] W[a,p] * Z[p,q]\n";

const char* const kChainProgram =
    "index a, b, c, d, e, f, g = 32\n"
    "index i, j, k, l = 8\n"
    "T1[a,b,c,d,i,j] = sum[k,l] X[a,b,k,l,i] * Y[c,d,k,l,j]\n"
    "T2[a,b,c,d,e,i] = sum[j] T1[a,b,c,d,i,j] * Z[e,j]\n"
    "T3[a,b,c,d,e,f] = sum[i] T2[a,b,c,d,e,i] * W[f,i]\n"
    "T4[a,b,c,d,e,g] = sum[f] T3[a,b,c,d,e,f] * U[f,g]\n";

const char* const kExecuteProgram =
    "index a, b, c, d = 60\n"
    "index e, f = 8\n"
    "index i, j, k, l = 4\n"
    "T1[b,c,d,f] = sum[e,l] B[b,e,f,l] * D[c,d,e,l]\n"
    "T2[b,c,j,k] = sum[d,f] T1[b,c,d,f] * C[d,f,j,k]\n"
    "S[a,b,i,j]  = sum[c,k] T2[b,c,j,k] * A[a,c,i,k]\n";

namespace {

/// Index extents of problem \p id: a and c share one extent.
struct Extents {
  std::uint64_t ac, b, e, f;
};

Extents extents_of(std::uint64_t id) {
  return {64 + 8 * (id % 16), 48 + 8 * ((id / 16) % 8),
          16 + 8 * ((id / 128) % 8), 24 + 8 * ((id / 1024) % 64)};
}

/// Names of the five indices (a, b, c, e, f) and seven tensors (T, U, S,
/// X, Y, Z, W) of a spelling, and the order of the index declarations.
struct Spelling {
  std::vector<std::string> idx;
  std::vector<std::string> ten;
  std::vector<int> decl_order;
};

std::string render(std::uint64_t id, const Spelling& sp) {
  const Extents x = extents_of(id);
  const std::uint64_t ext[5] = {x.ac, x.b, x.ac, x.e, x.f};
  const auto& a = sp.idx[0];
  const auto& b = sp.idx[1];
  const auto& c = sp.idx[2];
  const auto& e = sp.idx[3];
  const auto& f = sp.idx[4];
  const auto& T = sp.ten[0];
  const auto& U = sp.ten[1];
  const auto& S = sp.ten[2];
  const auto& X = sp.ten[3];
  const auto& Y = sp.ten[4];
  const auto& Z = sp.ten[5];
  const auto& W = sp.ten[6];
  std::string p;
  for (int k : sp.decl_order) {
    p += "index " + sp.idx[k] + " = " + std::to_string(ext[k]) + "\n";
  }
  p += T + "[" + a + "," + b + "] = sum[" + e + "] " + X + "[" + a + "," +
       e + "] * " + Y + "[" + e + "," + b + "]\n";
  p += U + "[" + a + "," + c + "] = sum[" + b + "] " + T + "[" + a + "," +
       b + "] * " + Z + "[" + b + "," + c + "]\n";
  p += S + "[" + a + "," + f + "] = sum[" + c + "] " + U + "[" + a + "," +
       c + "] * " + W + "[" + c + "," + f + "]\n";
  return p;
}

std::string random_name(tce::Rng& rng, char first_lo, char first_hi) {
  std::string s(1, static_cast<char>(rng.uniform_int(first_lo, first_hi)));
  const auto len = rng.uniform_int(1, 5);
  for (std::int64_t k = 0; k < len; ++k) {
    s += static_cast<char>(rng.uniform_int('a', 'z'));
  }
  return s;
}

}  // namespace

std::string serve_program(std::uint64_t id) {
  return render(id, Spelling{{"a", "b", "c", "e", "f"},
                             {"T", "U", "S", "X", "Y", "Z", "W"},
                             {0, 1, 2, 3, 4}});
}

std::string serve_program_renamed(std::uint64_t id, tce::Rng& rng) {
  // Index names start lowercase and tensor names uppercase, so the two
  // families never collide; the DSL keywords start out taken.
  std::set<std::string> taken = {"index", "sum"};
  Spelling sp;
  while (sp.idx.size() < 5) {
    std::string n = random_name(rng, 'a', 'z');
    if (taken.insert(n).second) sp.idx.push_back(n);
  }
  while (sp.ten.size() < 7) {
    std::string n = random_name(rng, 'A', 'Z');
    if (taken.insert(n).second) sp.ten.push_back(n);
  }
  sp.decl_order = {0, 1, 2, 3, 4};
  std::shuffle(sp.decl_order.begin(), sp.decl_order.end(), rng.engine());
  return render(id, sp);
}

}  // namespace perfbench
