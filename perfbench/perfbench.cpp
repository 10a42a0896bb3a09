//===- perfbench.cpp - The repository benchmark ---------------------------===//
//
// Part of the Thresher reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Runs one named workload for a fixed time window and prints one JSON
// result line. Every layer is measured from outside: the benchmark times its
// own calls into each layer's public entry points (compileAndroidApp /
// compileMJ, PointsToAnalysis::run, LeakChecker::run,
// LeakChecker::buildJsonReport, and a ServeServer driven over sockets) and
// reads the counters the program already exports (LeakChecker::stats(),
// LeakReport, traceEvents(), ServeServer::stats()).
//
// Every output is checked against an answer the analysis did not produce:
// the generator's seeded true leaks (Table 1 apps), the hand-written
// CHECK-EDGE lines (recursive corpus), a cold runCheckService report
// (serve), and the other thread configuration's deterministic report
// (table1_y against table1_y_par). See perfbench/README.md.
//
// Usage:
//   perfbench --workload W --seed N --seconds S --trace 0|1
//                    --corpus DIR --scratch DIR [--trace-out FILE]
//                    [--jitter 0|1]
//
//===----------------------------------------------------------------------===//

#include "android/AndroidModel.h"
#include "android/Benchmarks.h"
#include "leak/CheckService.h"
#include "leak/LeakChecker.h"
#include "serve/AppBundle.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "support/Intern.h"
#include "support/Json.h"

#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>

using namespace thresher;
namespace fs = std::filesystem;

namespace {

// --- Clocks and process resources. ---------------------------------------

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// User + system CPU of the whole process (every thread), in seconds.
double cpuSeconds() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
         double(U.ru_utime.tv_usec + U.ru_stime.tv_usec) / 1e6;
}

double peakRssMb() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2.0;
}

double mean(const std::vector<double> &V) {
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return V.empty() ? 0.0 : Sum / double(V.size());
}

/// Linear-interpolated quantile (Q in [0,1]).
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

// --- Seeded randomness (platform-independent). ----------------------------

struct Rng {
  uint64_t S;
  uint64_t next() {
    uint64_t Z = (S += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  size_t below(size_t N) { return static_cast<size_t>(next() % N); }
};

template <typename T> void shuffle(std::vector<T> &V, Rng &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R.below(I)]);
}

/// Held-out inputs (--jitter 1): seed 0 keeps the paper specs, any other
/// seed moves each pattern count by at most one, zero-sum per pattern kind
/// across \p Specs: apps that have the pattern are paired at random, one
/// gains an instance and the other loses one (never dropping below one).
/// Off in gated runs: search cost is far from linear in the pattern
/// counts (perfbench/README.md, "Seeds"), so jittered runs are compared
/// pairwise on equal seeds, never across seeds.
void jitterSpecs(std::vector<AppSpec> &Specs, uint64_t Seed) {
  if (Seed == 0)
    return;
  Rng R{Seed};
  for (int AppSpec::*Kind :
       {&AppSpec::SingletonLeaks, &AppSpec::LatentFlagAlarms,
        &AppSpec::VecFalseAlarms, &AppSpec::HashMapAlarms,
        &AppSpec::ConflationFalseAlarms}) {
    std::vector<size_t> Has;
    for (size_t I = 0; I < Specs.size(); ++I)
      if (Specs[I].*Kind > 0)
        Has.push_back(I);
    shuffle(Has, R);
    for (size_t I = 0; I + 1 < Has.size(); I += 2) {
      AppSpec &Up = Specs[Has[I]], &Down = Specs[Has[I + 1]];
      if (Down.*Kind >= 2) {
        ++(Up.*Kind);
        --(Down.*Kind);
      } else if (Up.*Kind >= 2) {
        --(Up.*Kind);
        ++(Down.*Kind);
      }
    }
  }
}

// --- Spans. ----------------------------------------------------------------

/// In-memory span recorder for traced passes; a no-op when off.
struct Tracer {
  struct Span {
    std::string Name, Id;
    int64_t Parent = -1;
    uint64_t Start = 0, End = 0;
    std::vector<std::pair<std::string, uint64_t>> Attrs;
  };
  bool On = false;
  std::vector<Span> Spans;

  int64_t begin(const char *Name, const std::string &Id, int64_t Parent = -1) {
    if (!On)
      return -1;
    Spans.push_back({Name, Id, Parent, nowNs(), 0, {}});
    return static_cast<int64_t>(Spans.size() - 1);
  }
  void end(int64_t S) {
    if (S >= 0)
      Spans[S].End = nowNs();
  }
  /// Per-edge children of a leak.run span, laid end to end from its start
  /// (traceEvents carry durations, not start times).
  void addEdgeChildren(int64_t Parent, const std::string &Id,
                       const std::vector<TraceEvent> &Events) {
    if (Parent < 0)
      return;
    uint64_t At = Spans[Parent].Start;
    for (const TraceEvent &Ev : Events) {
      uint64_t Dur = Ev.EnumNanos + Ev.SearchNanos;
      Spans.push_back({"sym.edge", Id + ": " + Ev.Edge, Parent, At, At + Dur,
                       {{"enumNanos", Ev.EnumNanos},
                        {"searchNanos", Ev.SearchNanos},
                        {"steps", Ev.Steps}}});
      At += Dur;
    }
  }
  /// Self time (span minus its children) summed per span name, in ms,
  /// over spans [From, end).
  std::map<std::string, double> selfMs(size_t From) const {
    std::vector<double> Child(Spans.size(), 0.0);
    for (size_t I = From; I < Spans.size(); ++I)
      if (Spans[I].Parent >= 0)
        Child[Spans[I].Parent] += double(Spans[I].End - Spans[I].Start);
    std::map<std::string, double> Out;
    for (size_t I = From; I < Spans.size(); ++I)
      Out[Spans[I].Name] +=
          (double(Spans[I].End - Spans[I].Start) - Child[I]) / 1e6;
    return Out;
  }
  void write(const std::string &Path) const {
    std::ofstream Out(Path);
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      JsonValue J = JsonValue::makeObject();
      J.set("span", JsonValue::makeUint(I));
      J.set("name", JsonValue::makeString(S.Name));
      J.set("id", JsonValue::makeString(S.Id));
      J.set("parent", JsonValue::makeInt(S.Parent));
      J.set("startNs", JsonValue::makeUint(S.Start));
      J.set("endNs", JsonValue::makeUint(S.End));
      for (const auto &[K, V] : S.Attrs)
        J.set(K, JsonValue::makeUint(V));
      Out << J.toString(-1) << "\n";
    }
  }
};

// --- Inputs. ---------------------------------------------------------------

/// A hand-written CHECK-EDGE expectation from a corpus file.
struct EdgeCheck {
  bool IsGlobal = false;
  std::string A, B, C, Expect;
  std::string label() const {
    return IsGlobal ? A + " -> " + B : A + "." + B + " -> " + C;
  }
};

struct Input {
  std::string Id;
  std::string Source;
  bool Annotate = false;
  uint64_t Budget = 0; ///< 0 = engine default.
  /// Generator-seeded true leaks as (static field, activity site) names.
  std::set<std::pair<std::string, std::string>> TrueLeaks;
  bool HasTruth = false;
  std::vector<EdgeCheck> Checks;
};

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Parses the corpus directives (see tests/corpus_test.cpp).
Input corpusInput(const fs::path &Path) {
  Input In;
  In.Id = Path.stem().string();
  In.Source = slurp(Path.string());
  std::istringstream Lines(In.Source);
  std::string Line;
  while (std::getline(Lines, Line)) {
    std::istringstream LS(Line);
    std::string Tok0, Tok1;
    LS >> Tok0 >> Tok1;
    if (Tok0 != "//")
      continue;
    if (Tok1 == "BUDGET") {
      LS >> In.Budget;
    } else if (Tok1 == "CHECK-EDGE-GLOBAL" || Tok1 == "CHECK-EDGE-FIELD") {
      EdgeCheck E;
      E.IsGlobal = Tok1 == "CHECK-EDGE-GLOBAL";
      if (E.IsGlobal)
        LS >> E.A >> E.B >> E.Expect;
      else
        LS >> E.A >> E.B >> E.C >> E.Expect;
      In.Checks.push_back(E);
    }
  }
  return In;
}

const char *const SmallApps[] = {"PulsePoint", "StandupTimer", "DroidLife",
                                 "OpenSudoku", "SMSPopUp"};

bool isSmallApp(const std::string &Name) {
  for (const char *N : SmallApps)
    if (Name == N)
      return true;
  return false;
}

/// Everything a workload needs, fixed by (workload, seed).
struct WorkloadDef {
  bool Serve = false;
  unsigned Threads = 1, SearchThreads = 1;
  /// The other thread configuration whose deterministic reports must
  /// match (0 = no cross-configuration check).
  unsigned OtherThreads = 0, OtherSearchThreads = 0;
  std::vector<AppSpec> Specs;      ///< Generated apps (jittered).
  std::vector<bool> SpecAnnotated; ///< Parallel to Specs.
  std::vector<fs::path> Files;     ///< Corpus files, in workload order.
  unsigned Rounds = 1;             ///< Serve: rounds per pass.
};

std::vector<fs::path> corpusFiles(const std::string &Dir, bool Recursive) {
  std::vector<fs::path> Out;
  for (const auto &E : fs::directory_iterator(Dir)) {
    std::string Stem = E.path().stem().string();
    if (E.path().extension() == ".mj" &&
        (Stem.rfind("recursive_", 0) == 0) == Recursive)
      Out.push_back(E.path());
  }
  std::sort(Out.begin(), Out.end());
  return Out;
}

bool defineWorkload(const std::string &Name, uint64_t Seed, bool Jitter,
                    const std::string &Corpus, WorkloadDef &W) {
  Rng R{Seed};
  if (Name == "table1_y" || Name == "table1_y_par") {
    bool Par = Name == "table1_y_par";
    W.Threads = W.SearchThreads = Par ? 2 : 1;
    W.OtherThreads = W.OtherSearchThreads = Par ? 1 : 2;
    for (const AppSpec &S : paperBenchmarks())
      if (isSmallApp(S.Name))
        W.Specs.push_back(S);
    jitterSpecs(W.Specs, Jitter ? Seed : 0);
    if (Seed != 0)
      shuffle(W.Specs, R);
    W.SpecAnnotated.assign(W.Specs.size(), true);
    return true;
  }
  if (Name == "recursive") {
    W.Files = corpusFiles(Corpus, /*Recursive=*/true);
    if (Seed != 0)
      shuffle(W.Files, R);
    return W.Files.size() == 4;
  }
  if (Name == "serve_mixed") {
    W.Serve = true;
    W.Rounds = 2;
    std::vector<AppSpec> Small;
    for (const AppSpec &S : paperBenchmarks())
      if (isSmallApp(S.Name))
        Small.push_back(S);
    jitterSpecs(Small, Jitter ? Seed : 0);
    for (bool Annotate : {false, true})
      for (const AppSpec &S : Small) {
        W.Specs.push_back(S);
        W.SpecAnnotated.push_back(Annotate);
      }
    W.Files = corpusFiles(Corpus, /*Recursive=*/false);
    return W.Specs.size() == 10 && W.Files.size() == 12;
  }
  return false;
}

/// Generates every app source and reads every corpus file (set-up).
std::vector<Input> makeInputs(const WorkloadDef &W) {
  std::vector<Input> Out;
  for (size_t I = 0; I < W.Specs.size(); ++I) {
    Input In;
    In.Annotate = W.SpecAnnotated[I];
    In.Id = W.Specs[I].Name + (In.Annotate ? "-Y" : "-N");
    In.Source = generateAppSource(W.Specs[I]);
    In.Budget = W.Specs[I].EdgeBudget;
    Out.push_back(std::move(In));
  }
  for (const fs::path &P : W.Files) {
    Out.push_back(corpusInput(P));
    // The CHECK-EDGE lines hold for the corpus test's configuration; serve
    // compiles every program with the Android library and is checked
    // against a cold run instead.
    if (W.Serve)
      Out.back().Checks.clear();
  }
  return Out;
}

/// Resolves the generator's ground truth for the app inputs through the
/// generator's own compile path (set-up of the batch workloads).
void attachTruth(const WorkloadDef &W, std::vector<Input> &Inputs) {
  for (size_t I = 0; I < W.Specs.size(); ++I) {
    BenchmarkApp App = buildBenchmarkApp(W.Specs[I]);
    for (const auto &[G, Site] : App.TrueLeaks)
      Inputs[I].TrueLeaks.insert({App.Prog->globalName(G), Site});
    Inputs[I].HasTruth = true;
  }
}

// --- Per-pass measurements. -------------------------------------------------

struct Pass {
  bool Traced = false;
  double WallS = 0, CpuS = 0;
  std::vector<double> ReqMs;
  /// Parallel to ReqMs: names the same request in every pass.
  std::vector<size_t> ReqKey;
  uint64_t Attempted = 0, Failed = 0;
  uint64_t Alarms = 0, Refuted = 0;
  std::vector<double> EdgeMs;
  std::map<std::string, double> Layer; ///< Summed per-layer values.
};

void addCounters(Pass &P, const Stats &S) {
  auto C = [&](const char *Metric, const char *Counter) {
    P.Layer[Metric] += double(S.get(Counter));
  };
  C("pta.edges", "pta.edges");
  C("sym.queries", "sym.queriesProcessed");
  C("sym.registry_hits", "par.registryHits");
  C("sym.registry_misses", "par.registryMisses");
  C("sym.registry_published", "par.registryPublished");
  C("sym.ag_widen", "sym.agWiden");
  C("sym.ag_folded_cells", "sym.agFoldedCells");
  C("sym.refute_cyclic", "sym.refute.cyclic");
  C("sym.refute_slice", "sym.refute.slice");
  C("sym.hard_widen", "sym.hardWiden");
  C("sym.widened_to_any", "sym.widenedToAny");
  C("sym.par_waves", "par.waves");
  C("sym.par_steals", "par.steals");
  C("sym.par_items_skipped", "par.itemsSkipped");
  P.Layer["sym.history_hits"] += double(S.get("sym.subsumedAtEntry") +
                                        S.get("sym.subsumedAtLoopHead") +
                                        S.get("sym.subsumedGlobal"));
  Histogram H = S.histogram("hist.subsumeNanos");
  P.Layer["sym.history_checks"] += double(H.count());
  P.Layer["sym.history_ms"] += double(H.sum()) / 1e6;
  Histogram Sat = S.histogram("hist.pureSatNanos");
  P.Layer["solver.sat_calls"] += double(Sat.count());
  P.Layer["solver.sat_ms"] += double(Sat.sum()) / 1e6;
  double &Arena = P.Layer["mem.arena_peak_bytes"];
  Arena = std::max(Arena, double(S.get("mem.arenaPeakBytes")));
}

double ratio(double N, double D) { return D > 0 ? N / D : 0.0; }

/// Derived per-layer values of one pass (after all inputs were added).
void finishLayer(Pass &P, const Tracer &T, size_t SpanFrom) {
  std::map<std::string, double> Self = T.selfMs(SpanFrom);
  auto &L = P.Layer;
  L["frontend.compile_ms"] = Self["frontend.compile"];
  L["pta.solve_ms"] = Self["pta.solve"];
  L["leak.self_ms"] = Self["leak.run"];
  L["sym.edges_ms"] = Self["sym.edge"];
  L["leak.run_ms"] = Self["leak.run"] + Self["sym.edge"];
  L["report.json_ms"] = Self["report.json"];
  L["leak.search_useful_ratio"] =
      ratio(L["leak.edges_consulted"], L["leak.edges_searched"]);
  L["sym.history_share"] = ratio(L["sym.history_ms"], L["leak.run_ms"]);
  L["sym.history_hit_ratio"] =
      ratio(L["sym.history_hits"], L["sym.history_checks"]);
  L.erase("sym.history_hits");
  L["sym.registry_hit_ratio"] =
      ratio(L["sym.registry_hits"],
            L["sym.registry_hits"] + L["sym.registry_misses"]);
  L["sym.edge_ms_p50"] = quantile(P.EdgeMs, 0.5);
  L["sym.edge_ms_p90"] = quantile(P.EdgeMs, 0.9);
  L["mem.interned_nodes"] = double(pureInterner().size());
  L["req_ms_p50"] = quantile(P.ReqMs, 0.5);
  L["trace.spans"] = double(T.Spans.size() - SpanFrom);
}

// --- Batch workloads. ------------------------------------------------------

struct InputRun {
  std::string DetReport; ///< Deterministic report form.
  uint64_t Failed = 0;   ///< Oracle violations.
};

/// Checks the leak verdicts of one input against its independent answer.
/// Returns the number of violations.
uint64_t checkOracle(const Input &In, const Program &P,
                     const PointsToResult &PTA, const LeakReport &R,
                     const SymOptions &SO) {
  uint64_t Bad = 0;
  if (In.HasTruth) {
    // Every seeded true leak must be reported (never refuted).
    std::set<std::pair<std::string, std::string>> Found;
    for (const AlarmResult &A : R.Alarms) {
      std::pair<std::string, std::string> Key{P.globalName(A.Source),
                                              PTA.Locs.label(P, A.Activity)};
      if (!In.TrueLeaks.count(Key))
        continue;
      if (A.Status == AlarmStatus::Refuted)
        ++Bad;
      else
        Found.insert(Key);
    }
    if (Found.size() != In.TrueLeaks.size())
      ++Bad;
  }
  std::unique_ptr<WitnessSearch> WS;
  for (const EdgeCheck &E : In.Checks) {
    std::string Label = E.label();
    auto It =
        std::find_if(R.Edges.begin(), R.Edges.end(),
                     [&](const EdgeVerdict &V) { return V.Label == Label; });
    std::string Got;
    if (It != R.Edges.end()) {
      Got = outcomeName(It->Outcome);
    } else {
      // Not consulted by the checker: ask the engine directly.
      auto Loc = [&](const std::string &L) {
        for (AbsLocId I = 0; I < PTA.Locs.size(); ++I)
          if (PTA.Locs.label(P, I) == L)
            return I;
        return AbsLocId(InvalidId);
      };
      if (!WS)
        WS = std::make_unique<WitnessSearch>(P, PTA, SO);
      if (E.IsGlobal) {
        size_t Dot = E.A.find('.');
        GlobalId G =
            Dot == std::string::npos
                ? InvalidId
                : P.findGlobal(E.A.substr(0, Dot), E.A.substr(Dot + 1));
        AbsLocId T = Loc(E.B);
        if (G != InvalidId && T != InvalidId)
          Got = outcomeName(WS->searchGlobalEdge(G, T).Outcome);
      } else {
        FieldId F = E.B == "@elems" ? P.ElemsField : P.findFieldByName(E.B);
        AbsLocId B = Loc(E.A), T = Loc(E.C);
        if (F != InvalidId && B != InvalidId && T != InvalidId)
          Got = outcomeName(WS->searchFieldEdge(B, F, T).Outcome);
      }
    }
    if (Got != E.Expect) {
      std::fprintf(stderr, "%s: edge %s is %s, expected %s\n", In.Id.c_str(),
                   Label.c_str(), Got.c_str(), E.Expect.c_str());
      ++Bad;
    }
  }
  return Bad;
}

/// One input through compile -> points-to -> leak check -> report. The
/// timed section covers exactly the four layer calls; checking follows.
InputRun runInput(const Input &In, unsigned Threads, unsigned SearchThreads,
                  Pass *P, Tracer &T) {
  InputRun Out;
  uint64_t T0 = nowNs();
  double C0 = cpuSeconds();
  int64_t S = T.begin("frontend.compile", In.Id);
  CompileResult CR = compileAndroidApp(In.Source);
  T.end(S);
  if (!CR.ok()) {
    std::fprintf(stderr, "%s: compile failed\n", In.Id.c_str());
    Out.Failed = 1;
    if (P) {
      ++P->Attempted;
      ++P->Failed;
    }
    return Out;
  }
  const Program &Prog = *CR.Prog;
  PTAOptions PO;
  if (In.Annotate)
    annotateHashMapEmptyTable(Prog, PO);
  S = T.begin("pta.solve", In.Id);
  std::unique_ptr<PointsToResult> PTA = PointsToAnalysis(Prog, PO).run();
  T.end(S);
  SymOptions SO;
  if (In.Budget)
    SO.EdgeBudget = In.Budget;
  SO.SearchThreads = SearchThreads;
  int64_t Leak = T.begin("leak.run", In.Id);
  LeakChecker LC(Prog, *PTA, activityBaseClass(Prog), SO);
  LeakReport R = LC.run(Threads);
  T.end(Leak);
  S = T.begin("report.json", In.Id);
  std::string Json = LC.buildJsonReport(R).toString(2);
  T.end(S);
  uint64_t T1 = nowNs();
  double C1 = cpuSeconds();

  ReportJsonOptions Det;
  Det.DeterministicOnly = true;
  Out.DetReport = LC.buildJsonReport(R, Det).toString(2);
  Out.Failed = checkOracle(In, Prog, *PTA, R, SO);
  if (Json.empty())
    ++Out.Failed;
  if (!P)
    return Out;
  P->WallS += double(T1 - T0) / 1e9;
  P->CpuS += C1 - C0;
  P->ReqMs.push_back(double(T1 - T0) / 1e6);
  P->Attempted += R.NumAlarms;
  P->Failed += Out.Failed;
  P->Alarms += R.NumAlarms;
  P->Refuted += R.RefutedAlarms;
  if (!P->Traced)
    return Out;
  T.addEdgeChildren(Leak, In.Id, LC.traceEvents());
  for (const EdgeVerdict &E : R.Edges)
    if (E.Nanos)
      P->EdgeMs.push_back(double(E.Nanos) / 1e6);
  P->Layer["leak.alarms"] += R.NumAlarms;
  P->Layer["leak.edges_consulted"] += double(R.Edges.size());
  P->Layer["leak.edges_searched"] += double(R.PrefetchedEdges);
  P->Layer["leak.timeout_edges"] += R.TimeoutEdges;
  addCounters(*P, LC.stats());
  return Out;
}

// --- Serve workload. -------------------------------------------------------

bool writeAll(int Fd, const std::string &S) {
  size_t Off = 0;
  while (Off < S.size()) {
    ssize_t N = ::write(Fd, S.data() + Off, S.size() - Off);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Off += static_cast<size_t>(N);
  }
  return true;
}

/// Blocking buffered reader for response frames.
struct FrameReader {
  int Fd;
  std::string Buf;
  bool fill() {
    char Tmp[65536];
    for (;;) {
      ssize_t N = ::read(Fd, Tmp, sizeof(Tmp));
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return false;
      Buf.append(Tmp, static_cast<size_t>(N));
      return true;
    }
  }
  bool line(std::string &Out) {
    size_t Nl;
    while ((Nl = Buf.find('\n')) == std::string::npos)
      if (!fill())
        return false;
    Out = Buf.substr(0, Nl);
    Buf.erase(0, Nl + 1);
    return true;
  }
  bool bytes(size_t N, std::string &Out) {
    while (Buf.size() < N)
      if (!fill())
        return false;
    Out = Buf.substr(0, N);
    Buf.erase(0, N);
    return true;
  }
  /// Reads one frame: its event name and (for results) its payload.
  bool frame(std::string &Event, std::string &Payload) {
    std::string Header;
    JsonValue H;
    if (!line(Header) || !parseJson(Header, H, nullptr) || !H.find("event"))
      return false;
    Event = H.find("event")->asString();
    Payload.clear();
    if (Event == "result")
      return H.find("reportBytes") &&
             bytes(static_cast<size_t>(H.find("reportBytes")->asUint()),
                   Payload);
    return true;
  }
};

AnalysisOptions serveOptions(const Input &In) {
  AnalysisOptions O;
  O.Android = true;
  O.AnnotateHashMap = In.Annotate;
  O.Deterministic = true;
  if (In.Budget)
    O.Sym.EdgeBudget = In.Budget;
  return O;
}

std::string requestLine(const std::string &Id, const Input &In) {
  JsonValue R = JsonValue::makeObject();
  R.set("schema", JsonValue::makeString(ServeSchema));
  R.set("id", JsonValue::makeString(Id));
  R.set("op", JsonValue::makeString("check"));
  R.set("tenant", JsonValue::makeString("bench"));
  JsonValue Src = JsonValue::makeArray();
  Src.append(JsonValue::makeString(In.Source));
  R.set("sources", std::move(Src));
  JsonValue Opts = JsonValue::makeObject();
  Opts.set("android", JsonValue::makeBool(true));
  Opts.set("annotateHashmap", JsonValue::makeBool(In.Annotate));
  Opts.set("deterministic", JsonValue::makeBool(true));
  if (In.Budget)
    Opts.set("budget", JsonValue::makeUint(In.Budget));
  R.set("options", std::move(Opts));
  return R.toString(-1) + "\n";
}

/// A running in-process daemon with one client connection.
struct ServeRig {
  std::unique_ptr<ServeServer> Server;
  std::thread Session;
  int ClientFd = -1;
  FrameReader Reader{-1, {}};
  fs::path Root;

  bool start(const fs::path &CacheRoot) {
    Root = CacheRoot;
    fs::remove_all(Root);
    fs::create_directories(Root);
    ServeOptions SO;
    SO.CacheRoot = Root.string();
    SO.Workers = 2;
    Server = std::make_unique<ServeServer>(SO);
    int Fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds) != 0)
      return false;
    ClientFd = Fds[0];
    Reader = FrameReader{ClientFd, {}};
    ServeServer *S = Server.get();
    int SrvFd = Fds[1];
    Session = std::thread([S, SrvFd] { S->serveConnection(SrvFd); });
    std::string Ev, Payload;
    return Reader.frame(Ev, Payload) && Ev == "hello";
  }
  /// Hangs up, joins the session, drains and flushes the daemon.
  void stop() {
    if (ClientFd >= 0) {
      ::shutdown(ClientFd, SHUT_RDWR);
      ::close(ClientFd);
      ClientFd = -1;
    }
    if (Session.joinable())
      Session.join();
    if (Server)
      Server->shutdown();
    Server.reset();
    fs::remove_all(Root);
  }
};

/// The request order of one pass. Every round sends each input twice,
/// following one seeded permutation P: P[i] goes out as the i-th new
/// input and again right after P[i + ResidentLag]. So the repeat always
/// finds its bundle resident (fewer than 8 other inputs came between),
/// while the next round's first request for it always finds it evicted
/// (all other inputs came between). The work of a pass is then the
/// same for every order: round one writes and then hits, later rounds
/// rebuild from the refutation cache and then hit. An order that let
/// residency depend on position moved cpu_s by a quarter across seeds.
/// Each entry is (input, repeat?).
using ServePlan = std::vector<std::pair<size_t, bool>>;
constexpr size_t ResidentLag = 3;

ServePlan servePlan(size_t Inputs, unsigned Rounds, uint64_t Seed,
                    uint64_t PassNo) {
  std::vector<size_t> P(Inputs);
  for (size_t I = 0; I < Inputs; ++I)
    P[I] = I;
  Rng R{Seed * 0x100000001b3ULL + PassNo};
  shuffle(P, R);
  ServePlan Round;
  for (size_t I = 0; I < Inputs + ResidentLag; ++I) {
    if (I < Inputs)
      Round.push_back({P[I], false});
    if (I >= ResidentLag)
      Round.push_back({P[I - ResidentLag], true});
  }
  ServePlan Plan;
  for (unsigned K = 0; K < Rounds; ++K)
    Plan.insert(Plan.end(), Round.begin(), Round.end());
  return Plan;
}

/// One closed-loop stream of requests over the rig's connection: each
/// request goes out when the previous answer arrived. So a repeat never
/// overlaps the write of its input (an overlap repeats the whole search),
/// and which bundles are resident follows from the plan alone. Two
/// concurrent clients made the pass time depend on the request order
/// (perfbench/README.md, "Steadiness"). A request's key names the same
/// request in every pass: (round, input, repeat). First payloads per
/// input land in \p First; later ones must equal them.
void runServeStream(ServeRig &Rig, const std::vector<Input> &Inputs,
                    const std::vector<std::string> &Lines,
                    const ServePlan &Plan, std::vector<std::string> &First,
                    Pass &P, Tracer &T) {
  uint64_t T0 = nowNs();
  double C0 = cpuSeconds();
  for (size_t K = 0; K < Plan.size(); ++K) {
    auto [In, Repeat] = Plan[K];
    uint64_t S0 = nowNs();
    std::string Ev, Payload;
    bool Ok =
        writeAll(Rig.ClientFd, Lines[In]) && Rig.Reader.frame(Ev, Payload);
    uint64_t S1 = nowNs();
    if (T.On)
      T.Spans.push_back({"serve.request", Inputs[In].Id, -1, S0, S1, {}});
    P.ReqMs.push_back(double(S1 - S0) / 1e6);
    size_t Round = K / (2 * Inputs.size());
    P.ReqKey.push_back((Round * Inputs.size() + In) * 2 + Repeat);
    ++P.Attempted;
    if (!Ok || Ev != "result") {
      std::fprintf(stderr, "%s: %s frame\n", Inputs[In].Id.c_str(),
                   Ok ? Ev.c_str() : "missing");
      ++P.Failed;
    } else if (First[In].empty()) {
      First[In] = std::move(Payload);
    } else if (First[In] != Payload) {
      std::fprintf(stderr, "%s: report differs between requests\n",
                   Inputs[In].Id.c_str());
      ++P.Failed;
    }
    if (!Ok)
      break;
  }
  P.WallS = double(nowNs() - T0) / 1e9;
  P.CpuS = cpuSeconds() - C0;
}

/// The cold reference: a fresh compile + points-to + runCheckService per
/// input, the stateless `thresher check --json --deterministic` path.
std::string coldReport(const Input &In) {
  AnalysisOptions Opt = serveOptions(In);
  std::vector<Error> Errs;
  std::unique_ptr<AppBundle> App =
      buildAppBundle({In.Source}, Opt, /*Gov=*/nullptr, &Errs);
  if (!App || App->ActivityBase == InvalidId)
    return std::string();
  ResourceGovernor Gov((GovernorConfig()));
  CheckServiceRequest Req;
  Req.Opt = Opt;
  return runCheckService(*App->Prog, *App->PTA, App->ActivityBase, Req,
                         /*Cache=*/nullptr, &Gov)
      .ReportJson;
}

uint64_t refutedInReport(const std::string &Report, uint64_t *Alarms) {
  JsonValue Doc;
  if (!parseJson(Report, Doc, nullptr))
    return 0;
  const JsonValue *A = Doc.findPath("summary.alarms");
  const JsonValue *R = Doc.findPath("summary.refutedAlarms");
  *Alarms += A ? A->asUint() : 0;
  return R ? R->asUint() : 0;
}

// --- Output. ---------------------------------------------------------------

struct Metric {
  std::string Name, Unit;
  double Value;
};

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<Metric> &Ms) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed));
  for (size_t I = 0; I < Ms.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Ms[I].Name.c_str(), Ms[I].Value,
                Ms[I].Unit.c_str());
  std::printf("}}\n");
}

/// Unit of each per-layer metric; every traced run prints all of them
/// (zero where a workload does not exercise the layer).
const std::vector<std::pair<std::string, std::string>> LayerMetrics = {
    {"frontend.compile_ms", "ms"},   {"pta.solve_ms", "ms"},
    {"pta.edges", "count"},          {"leak.run_ms", "ms"},
    {"leak.self_ms", "ms"},          {"leak.alarms", "count"},
    {"leak.edges_consulted", "count"}, {"leak.edges_searched", "count"},
    {"leak.search_useful_ratio", "ratio"}, {"leak.timeout_edges", "count"},
    {"sym.edges_ms", "ms"},          {"sym.edge_ms_p50", "ms"},
    {"sym.edge_ms_p90", "ms"},       {"sym.queries", "count"},
    {"sym.history_checks", "count"}, {"sym.history_ms", "ms"},
    {"sym.history_share", "ratio"},  {"sym.history_hit_ratio", "ratio"},
    {"sym.registry_hits", "count"},  {"sym.registry_misses", "count"},
    {"sym.registry_published", "count"}, {"sym.registry_hit_ratio", "ratio"},
    {"sym.ag_widen", "count"},       {"sym.ag_folded_cells", "count"},
    {"sym.refute_cyclic", "count"},  {"sym.refute_slice", "count"},
    {"sym.hard_widen", "count"},     {"sym.widened_to_any", "count"},
    {"sym.par_waves", "count"},      {"sym.par_steals", "count"},
    {"sym.par_items_skipped", "count"}, {"solver.sat_calls", "count"},
    {"solver.sat_ms", "ms"},         {"mem.arena_peak_bytes", "bytes"},
    {"mem.interned_nodes", "count"}, {"report.json_ms", "ms"},
    {"serve.app_hits", "count"},     {"serve.app_misses", "count"},
    {"serve.app_evicted", "count"},  {"serve.check_ms", "ms"},
    {"serve.wait_ms", "ms"},         {"serve.request_ms", "ms"},
    {"req_ms_p50", "ms"},            {"trace.spans", "count"},
    {"trace.overhead_ms", "ms"},     {"trace.overhead_share", "ratio"},
};

struct Args {
  std::string Workload, Corpus = "tests/corpus", Scratch = ".bench_build",
                        TraceOut;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  bool Jitter = false;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::stoull(V);
    else if (K == "--seconds")
      A.Seconds = std::stod(V);
    else if (K == "--trace")
      A.Trace = V == "1";
    else if (K == "--jitter")
      A.Jitter = V == "1";
    else if (K == "--corpus")
      A.Corpus = V;
    else if (K == "--scratch")
      A.Scratch = V;
    else if (K == "--trace-out")
      A.TraceOut = V;
    else
      return false;
  }
  return Argc % 2 == 1 && !A.Workload.empty();
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  try {
    if (!parseArgs(Argc, Argv, A))
      throw std::invalid_argument("bad arguments");
  } catch (const std::exception &) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--corpus DIR] [--scratch DIR] "
                 "[--trace-out FILE] [--jitter 0|1]\n");
    return 2;
  }
  WorkloadDef W;
  if (!fs::is_directory(A.Corpus) ||
      !defineWorkload(A.Workload, A.Seed, A.Jitter, A.Corpus, W)) {
    std::fprintf(stderr, "unknown workload '%s' or missing corpus '%s'\n",
                 A.Workload.c_str(), A.Corpus.c_str());
    return 2;
  }

  // Set-up (inputs, their answers, and for serve a fresh cache root and
  // daemon) runs before every pass; a few extra set-ups at the start give
  // workloads with one long pass enough samples, and few enough that the
  // per-pass set-ups, spread over the run, set the median.
  std::vector<double> SetupS;
  std::vector<Input> Inputs;
  ServeRig Rig;
  fs::path ServeRoot = fs::path(A.Scratch) /
                       ("serve-cache-" + std::to_string(::getpid()));
  ServePlan Plan;
  std::vector<std::string> Lines;
  auto Setup = [&](uint64_t PassNo) {
    uint64_t T0 = nowNs();
    Inputs = makeInputs(W);
    if (!W.Serve)
      attachTruth(W, Inputs);
    if (W.Serve) {
      Lines.clear();
      for (size_t I = 0; I < Inputs.size(); ++I)
        Lines.push_back(requestLine(Inputs[I].Id, Inputs[I]));
      Plan = servePlan(Inputs.size(), W.Rounds, A.Seed, PassNo);
      if (!Rig.start(ServeRoot)) {
        std::fprintf(stderr, "serve rig failed to start\n");
        std::exit(1);
      }
    }
    SetupS.push_back(double(nowNs() - T0) / 1e9);
  };
  for (int I = 0; I < 8; ++I) {
    Setup(0);
    if (W.Serve)
      Rig.stop();
  }

  Tracer T;
  std::vector<Pass> Passes;
  std::vector<std::string> ServeFirst;
  std::vector<std::string> LastDet, FirstDet;
  uint64_t Failed = 0, Attempted = 0;
  uint64_t RunStart = nowNs();
  for (;;) {
    Pass P;
    P.Traced = A.Trace && Passes.size() % 2 == 1;
    T.On = P.Traced;
    size_t SpanFrom = T.Spans.size();
    // A traced pass repeats the previous untraced pass's inputs and order.
    Setup(A.Trace ? Passes.size() / 2 : Passes.size());
    if (W.Serve) {
      std::vector<std::string> First(Inputs.size());
      runServeStream(Rig, Inputs, Lines, Plan, First, P, T);
      Stats &S = Rig.Server->stats();
      P.Layer["serve.app_hits"] = double(S.get("serve.cache.appHits"));
      P.Layer["serve.app_misses"] = double(S.get("serve.cache.appMisses"));
      P.Layer["serve.app_evicted"] = double(S.get("serve.cache.appEvicted"));
      double CheckMs = double(S.histogram("hist.serve.requestMs").sum());
      double ClientMs = 0;
      for (double Ms : P.ReqMs)
        ClientMs += Ms;
      P.Layer["serve.check_ms"] = CheckMs;
      P.Layer["serve.request_ms"] = ClientMs;
      P.Layer["serve.wait_ms"] = ClientMs - CheckMs;
      Rig.stop();
      if (ServeFirst.empty())
        ServeFirst = First;
      for (size_t I = 0; I < First.size(); ++I)
        if (First[I] != ServeFirst[I]) {
          std::fprintf(stderr, "%s: report differs between passes\n",
                       Inputs[I].Id.c_str());
          ++P.Failed;
        }
    } else {
      std::vector<std::string> Det;
      for (size_t I = 0; I < Inputs.size(); ++I) {
        Det.push_back(
            runInput(Inputs[I], W.Threads, W.SearchThreads, &P, T).DetReport);
        P.ReqKey.push_back(I);
      }
      if (FirstDet.empty())
        FirstDet = Det;
      for (size_t I = 0; I < Det.size(); ++I)
        if (Det[I] != FirstDet[I]) {
          std::fprintf(stderr, "%s: report differs between passes\n",
                       Inputs[I].Id.c_str());
          ++P.Failed;
        }
      LastDet = std::move(Det);
    }
    finishLayer(P, T, SpanFrom);
    std::fprintf(stderr, "pass %zu: wall %.3f s, cpu %.3f s\n", Passes.size(),
                 P.WallS, P.CpuS);
    Failed += P.Failed;
    Attempted += P.Attempted;
    Passes.push_back(std::move(P));

    std::vector<double> Walls;
    for (const Pass &Q : Passes)
      Walls.push_back(Q.WallS);
    double Elapsed = double(nowNs() - RunStart) / 1e9;
    bool Enough = !A.Trace || Passes.size() >= 2;
    if (Enough &&
        (Elapsed + median(Walls) > A.Seconds || Passes.size() >= 2000))
      break;
  }
  double PeakRss = peakRssMb();

  // --- Verification that needs the program again (not timed). ---
  uint64_t Alarms = 0, Refuted = 0;
  if (W.Serve) {
    for (size_t I = 0; I < Inputs.size(); ++I) {
      std::string Cold = coldReport(Inputs[I]);
      if (Cold.empty() || Cold != ServeFirst[I]) {
        std::fprintf(stderr, "%s: served report differs from cold check\n",
                     Inputs[I].Id.c_str());
        ++Failed;
      }
      Refuted += refutedInReport(ServeFirst[I], &Alarms);
    }
  } else {
    Alarms = Passes.back().Alarms;
    Refuted = Passes.back().Refuted;
    if (W.OtherThreads) {
      // The {threads} x {search-threads} determinism contract at
      // benchmark scale: the other configuration's deterministic reports
      // must be byte-identical.
      for (size_t I = 0; I < Inputs.size(); ++I) {
        InputRun O = runInput(Inputs[I], W.OtherThreads,
                              W.OtherSearchThreads, nullptr, T);
        if (O.DetReport != LastDet[I]) {
          std::fprintf(stderr, "%s: report differs across thread counts\n",
                       Inputs[I].Id.c_str());
          ++Failed;
        }
      }
    }
  }

  std::vector<Metric> Out;
  if (!A.Trace) {
    // Pass timings report the run's mean pass. Every pass does the same
    // work (its counters are equal), but shared hosts alternate between
    // fast and contended phases lasting seconds to minutes. Whether a run
    // caught a fast burst at all moved its fastest pass by up to a fifth
    // across ten runs of table1_y; the mean pass spread least in every
    // ten-run set, the median close behind (perfbench/README.md,
    // "Steadiness"). Request latency takes each request's mean over the
    // passes (a request is one input of a batch pass, or one (round,
    // input, repeat) of a serve pass), then the 90th percentile over the
    // requests. Set-up reports its median over the run.
    std::vector<double> Wall, Cpu, Rate, Req;
    std::map<size_t, std::vector<double>> ByReq;
    for (const Pass &P : Passes) {
      Wall.push_back(P.WallS);
      Cpu.push_back(P.CpuS);
      Rate.push_back(double(P.ReqMs.size()) / P.WallS);
      for (size_t I = 0; I < P.ReqMs.size(); ++I)
        ByReq[P.ReqKey[I]].push_back(P.ReqMs[I]);
    }
    for (const auto &[Key, Ms] : ByReq)
      Req.push_back(mean(Ms));
    Out = {{"wall_s", "s", mean(Wall)},
           {"cpu_s", "s", mean(Cpu)},
           {"peak_rss_mb", "MB", PeakRss},
           {"setup_s", "s", median(SetupS)},
           {"refuted_alarms", "count", double(Refuted)},
           {"unrefuted_alarms", "count", double(Alarms - Refuted)},
           {"req_ms_p90", "ms", quantile(Req, 0.9)},
           {"req_per_s", "req/s", mean(Rate)}};
  } else {
    std::map<std::string, std::vector<double>> Vals;
    std::vector<double> Traced, Plain;
    for (const Pass &P : Passes) {
      (P.Traced ? Traced : Plain).push_back(P.WallS);
      if (P.Traced)
        for (const auto &[K, V] : P.Layer)
          Vals[K].push_back(V);
    }
    if (W.Serve) {
      // The daemon's internal layers are not visible through the
      // deterministic frames; decompose the same inputs through a traced
      // cold pass instead (what each input's first request computes).
      Pass Cold;
      Cold.Traced = T.On = true;
      size_t From = T.Spans.size();
      for (const Input &In : Inputs)
        runInput(In, 1, 1, &Cold, T);
      finishLayer(Cold, T, From);
      for (const auto &[K, V] : Cold.Layer)
        if (K.rfind("serve.", 0) != 0 && K != "trace.spans" &&
            K != "req_ms_p50")
          Vals[K] = {V};
    }
    // Same pass statistic as the end-to-end wall_s: the mean pass.
    double Plain0 = mean(Plain);
    double Overhead = (mean(Traced) - Plain0) * 1e3;
    Vals["trace.overhead_ms"] = {Overhead};
    Vals["trace.overhead_share"] = {ratio(Overhead, Plain0 * 1e3)};
    for (const auto &[Name, Unit] : LayerMetrics)
      Out.push_back({Name, Unit, median(Vals[Name])});
    if (!A.TraceOut.empty())
      T.write(A.TraceOut);
  }
  printResult(Failed == 0, std::max<uint64_t>(Attempted, 1), Failed, Out);
  return 0;
}
