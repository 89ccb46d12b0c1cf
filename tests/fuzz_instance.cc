// libFuzzer harness for the columnar instance core (tentpole satellite;
// see docs/STORAGE.md). Feeds arbitrary bytes through ParseInstance and,
// for every instance that parses, checks the columnar snapshot's
// invariants:
//
//   - the term dictionary round-trips every stored term (identity, all
//     kinds — labeled nulls included);
//   - every postings list equals the filtered full scan (same rows, same
//     insertion order);
//   - a homomorphism search over a pattern generalized from the instance
//     returns the same set of results as the brute-force oracle
//     (tests/hom_oracle.h).
//
// Any violation aborts, which is what the fuzzer (and the ctest replay
// over tests/fuzz/instance_corpus) reports as a finding.
//
// Build with clang + -DDXREC_BUILD_FUZZERS=ON for the real libFuzzer
// entry point; without DXREC_LIBFUZZER the same file compiles to the
// standalone replayer that the `fuzz_instance_replay` ctest runs.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "chase/homomorphism.h"
#include "hom_oracle.h"
#include "logic/parser.h"
#include "relational/columnar.h"
#include "relational/instance.h"

namespace {

void Check(bool ok, const char* what) {
  if (ok) return;
  std::fprintf(stderr, "fuzz_instance: invariant violated: %s\n", what);
  std::abort();
}

// Generalizes `atom` into a pattern: odd positions keep their term,
// even positions become (shared) variables — enough to exercise joins,
// constant filters, and postings probes in one search.
dxrec::Atom Generalize(const dxrec::Atom& atom) {
  std::vector<dxrec::Term> args;
  for (uint32_t pos = 0; pos < atom.arity(); ++pos) {
    if (pos % 2 == 0) {
      args.push_back(
          dxrec::Term::Variable("fz_v" + std::to_string(pos / 2)));
    } else {
      args.push_back(atom.arg(pos));
    }
  }
  return dxrec::Atom(atom.relation(), std::move(args));
}

void CheckColumnarInvariants(const dxrec::Instance& instance) {
  using dxrec::TermDictionary;
  const dxrec::ColumnarInstance& columnar = instance.Columnar();
  Check(columnar.size() == instance.size(), "size mismatch");

  for (const dxrec::Atom& a : instance.atoms()) {
    const dxrec::ColumnarRelation* rel = columnar.Relation(a.relation());
    Check(rel != nullptr, "stored relation missing from snapshot");
    for (uint32_t pos = 0; pos < a.arity(); ++pos) {
      uint32_t code = columnar.dict().Find(a.arg(pos));
      Check(code != TermDictionary::kNoCode, "stored term has no code");
      Check(columnar.dict().Decode(code) == a.arg(pos),
            "dictionary round-trip lost term identity");
      // Postings list == filtered scan, in order.
      std::vector<uint32_t> filtered;
      for (uint32_t row : columnar.Rows(a.relation())) {
        if (pos < rel->arity(row) && rel->code(pos, row) == code) {
          filtered.push_back(row);
        }
      }
      const std::span<const uint32_t> postings =
          columnar.Probe(a.relation(), pos, code);
      Check(std::equal(postings.begin(), postings.end(), filtered.begin(),
                       filtered.end()),
            "postings list != filtered scan");
    }
  }
}

void CheckSearchEquivalence(const dxrec::Instance& instance) {
  std::vector<dxrec::Atom> pattern;
  for (const dxrec::Atom& a : instance.atoms()) {
    pattern.push_back(Generalize(a));
    if (pattern.size() >= 2) break;
  }
  if (pattern.empty()) return;
  // At most 2 pattern atoms over at most 64 atoms: the oracle's full
  // enumeration stays under 4096 results.
  const std::set<std::string> expected =
      dxrec::oracle::AllHoms(pattern, instance);
  dxrec::HomSearchOptions options;
  options.max_results = 256;
  dxrec::HomSearchResult found =
      dxrec::FindHomomorphismsChecked(pattern, instance, options);
  std::set<std::string> got;
  for (const dxrec::Substitution& h : found.homs) got.insert(h.ToString());
  Check(got.size() == found.homs.size(), "search returned a duplicate");
  if (found.truncated) {
    // Capped: a sound subset of exactly max_results homomorphisms.
    Check(got.size() == options.max_results, "truncated below the cap");
    for (const std::string& h : got) {
      Check(expected.count(h) > 0, "search found a non-homomorphism");
    }
  } else {
    Check(got == expected, "search and brute-force oracle diverged");
  }
}

// Every input must either fail to parse with a clean error Status or
// yield an instance whose columnar snapshot is equivalent to the row
// form — never crash, hang, or trip an invariant.
void FuzzOne(std::string_view text) {
  dxrec::Result<dxrec::Instance> parsed = dxrec::ParseInstance(text);
  if (!parsed.ok()) return;
  if (parsed->size() > 64) return;  // bound the per-input work
  CheckColumnarInvariants(*parsed);
  CheckSearchEquivalence(*parsed);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  FuzzOne(std::string_view(reinterpret_cast<const char*>(data), size));
  return 0;
}

#ifndef DXREC_LIBFUZZER
// Standalone replayer: each argument is a corpus file or a directory of
// corpus files; with no arguments, reads stdin (same shape as
// fuzz_parser.cc).
#include <dirent.h>
#include <sys/stat.h>

#include <fstream>
#include <iostream>
#include <sstream>

namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void ReplayPath(const std::string& path, size_t* count) {
  struct stat st;
  if (stat(path.c_str(), &st) != 0) {
    std::fprintf(stderr, "fuzz_instance: cannot stat %s\n", path.c_str());
    std::exit(1);
  }
  if (S_ISDIR(st.st_mode)) {
    DIR* dir = opendir(path.c_str());
    if (dir == nullptr) {
      std::fprintf(stderr, "fuzz_instance: cannot open %s\n", path.c_str());
      std::exit(1);
    }
    std::vector<std::string> entries;
    while (dirent* entry = readdir(dir)) {
      std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      entries.push_back(path + "/" + name);
    }
    closedir(dir);
    for (const std::string& entry : entries) ReplayPath(entry, count);
    return;
  }
  std::string data = ReadFileOrDie(path);
  LLVMFuzzerTestOneInput(reinterpret_cast<const uint8_t*>(data.data()),
                         data.size());
  ++*count;
}

}  // namespace

int main(int argc, char** argv) {
  size_t count = 0;
  if (argc < 2) {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    std::string data = buffer.str();
    LLVMFuzzerTestOneInput(reinterpret_cast<const uint8_t*>(data.data()),
                           data.size());
    ++count;
  } else {
    for (int i = 1; i < argc; ++i) ReplayPath(argv[i], &count);
  }
  std::printf("fuzz_instance: replayed %zu input(s) without incident\n",
              count);
  return 0;
}
#endif  // DXREC_LIBFUZZER
