#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "common/random.h"
#include "common/string_util.h"
#include "net/json.h"
#include "ssb/ssb_generator.h"
#include "ssb/ssb_queries.h"
#include "ssb/ssb_schema.h"
#include "util.h"

namespace perfbench {

using dpstarj::Format;
using dpstarj::Result;
using dpstarj::Rng;
using dpstarj::Status;
using dpstarj::storage::Value;

namespace {

// Warm-up ops draw their constants from a disjoint index range and their ε
// from the top of StreamEpsilon's range, so they never collide with a timed
// request's answer-cache key.
constexpr uint64_t kWarmBase = uint64_t{1} << 40;
constexpr uint64_t kEpsilonPeriod = 3 * (uint64_t{1} << 18);
uint64_t WarmEpsilonIndex(uint64_t j) { return kEpsilonPeriod - 1 - j; }

// Salts that keep the independent draws of one index apart.
constexpr uint64_t kSaltShape = 1;
constexpr uint64_t kSaltConst = 2;
constexpr uint64_t kSaltRows = 3;

const char* const kJoinDate = "Lineorder.orderdate = Date.datekey";
const char* const kJoinCust = "Lineorder.custkey = Customer.custkey";
const char* const kJoinSupp = "Lineorder.suppkey = Supplier.suppkey";
const char* const kJoinPart = "Lineorder.partkey = Part.partkey";

std::string Quoted(const std::string& s) { return "'" + s + "'"; }

// ------------------------------------------------------------------------
// The nine paper query shapes (ssb/ssb_queries.cc) with fresh constants.

enum PaperShape { kQc1, kQc2, kQc3, kQc4, kQs2, kQs3, kQs4, kQg2, kQg4, kNumPaper };
const char* const kPaperNames[kNumPaper] = {"Qc1", "Qc2", "Qc3", "Qc4", "Qs2",
                                            "Qs3", "Qs4", "Qg2", "Qg4"};

struct PaperParams {
  int y1 = 1993, y2 = 1993;  // Date.year range (Qc1 uses y1 as a point)
  int cust_region = 0, supp_region = 0, supp_nation = 0;
  int category = 0, mfgr_a = 0, mfgr_b = 1;
};

void DrawVaried(Rng& r, PaperParams* p) {
  p->supp_nation = static_cast<int>(r.UniformInt(0, 24));
  p->category = static_cast<int>(r.UniformInt(0, 24));
  // The binder normalizes an OR only over adjacent domain values.
  p->mfgr_a = static_cast<int>(r.UniformInt(0, 3));
  p->mfgr_b = p->mfgr_a + 1;
}

PaperParams DrawPaperParams(Rng& r) {
  PaperParams p;
  p.y1 = static_cast<int>(r.UniformInt(1992, 1996));
  p.y2 = static_cast<int>(std::min<int64_t>(1998, p.y1 + r.UniformInt(1, 3)));
  p.cust_region = static_cast<int>(r.UniformInt(0, 4));
  p.supp_region = static_cast<int>(r.UniformInt(0, 4));
  DrawVaried(r, &p);
  return p;
}

bool PaperGrouped(int shape) { return shape == kQg2 || shape == kQg4; }

// `q1_range` spells Qc1's year predicate as the shared BETWEEN range (batch
// queries share one Date predicate node).
std::string PaperSql(int shape, const PaperParams& p, bool q1_range) {
  const auto& regions = dpstarj::ssb::Regions();
  const auto& nations = dpstarj::ssb::Nations();
  const auto& categories = dpstarj::ssb::Categories();
  const auto& mfgrs = dpstarj::ssb::Mfgrs();
  const std::string years = Format("Date.year BETWEEN %d AND %d", p.y1, p.y2);
  switch (shape) {
    case kQc1:
      return std::string("SELECT count(*) FROM Date, Lineorder WHERE ") + kJoinDate +
             " AND " + (q1_range ? years : Format("Date.year = %d", p.y1));
    case kQc2:
    case kQs2:
    case kQg2: {
      std::string select = shape == kQc2   ? "count(*)"
                           : shape == kQs2 ? "sum(Lineorder.revenue)"
                                           : "sum(Lineorder.revenue), Date.year, Part.brand";
      std::string sql = "SELECT " + select +
                        " FROM Date, Lineorder, Part, Supplier WHERE " + kJoinSupp +
                        " AND " + kJoinPart + " AND " + kJoinDate +
                        " AND Part.category = " + Quoted(categories[p.category]) +
                        " AND Supplier.region = " + Quoted(regions[p.supp_region]);
      if (shape == kQg2) {
        sql += " GROUP BY Date.year, Part.brand ORDER BY Date.year, Part.brand";
      }
      return sql;
    }
    case kQc3:
    case kQs3: {
      std::string select = shape == kQc3 ? "count(*)" : "sum(Lineorder.revenue)";
      return "SELECT " + select + " FROM Date, Lineorder, Customer, Supplier WHERE " +
             kJoinSupp + " AND " + kJoinCust + " AND " + kJoinDate +
             " AND Customer.region = " + Quoted(regions[p.cust_region]) +
             " AND Supplier.region = " + Quoted(regions[p.supp_region]) + " AND " + years;
    }
    case kQc4:
    case kQs4:
    case kQg4: {
      std::string select =
          shape == kQc4   ? "count(*)"
          : shape == kQs4 ? "sum(Lineorder.revenue)"
                          : "sum(Lineorder.revenue - Lineorder.supplycost), Date.year, "
                            "Part.category";
      std::string sql =
          "SELECT " + select +
          " FROM Date, Lineorder, Customer, Part, Supplier WHERE " + kJoinSupp +
          " AND " + kJoinPart + " AND " + kJoinCust + " AND " + kJoinDate +
          " AND Customer.region = " + Quoted(regions[p.cust_region]) +
          " AND Supplier.nation = " + Quoted(nations[p.supp_nation]) + " AND " +
          years + " AND Part.mfgr = " + Quoted(mfgrs[p.mfgr_a]) +
          " OR Part.mfgr = " + Quoted(mfgrs[p.mfgr_b]);
      if (shape == kQg4) {
        sql += " GROUP BY Date.year, Part.category ORDER BY Date.year, Part.category";
      }
      return sql;
    }
    default:
      return "";
  }
}

QuerySpec PaperQuery(int shape, const PaperParams& p, bool q1_range, double epsilon) {
  QuerySpec q;
  q.sql = PaperSql(shape, p, q1_range);
  q.epsilon = epsilon;
  q.grouped = PaperGrouped(shape);
  q.signature = kPaperNames[shape];
  return q;
}

// ------------------------------------------------------------------------
// fresh_scan: the nine paper shapes, fresh constants and ε on every request.

class FreshScan final : public Workload {
 public:
  using Workload::Workload;

  std::vector<Op> WarmupOps() const override {
    std::vector<Op> ops;
    for (int s = 0; s < kNumPaper; ++s) {
      ops.push_back(Make(kWarmBase + static_cast<uint64_t>(s), s,
                         StreamEpsilon(WarmEpsilonIndex(static_cast<uint64_t>(s)))));
    }
    return ops;
  }

  Op MakeOp(uint64_t i) const override {
    return Make(i, static_cast<int>(Mix64(seed_ ^ kSaltShape, i) % kNumPaper),
                StreamEpsilon(i));
  }

 private:
  Op Make(uint64_t index, int shape, double epsilon) const {
    Rng r(Mix64(seed_ ^ kSaltConst, index));
    Op op;
    op.index = index;
    op.queries = {PaperQuery(shape, DrawPaperParams(r), false, epsilon)};
    Encode(&op);
    return op;
  }
};

// ------------------------------------------------------------------------
// adhoc_cold: random star-join shapes from several hundred signatures.

struct AdhocAttr {
  const char* column;
  int lo = 0, hi = 0;                              // integer domain
  const std::vector<std::string>* names = nullptr;  // categorical domain
  int size() const { return names != nullptr ? static_cast<int>(names->size()) : hi - lo + 1; }
};

struct AdhocDim {
  const char* table;
  const char* join;
  std::vector<AdhocAttr> attrs;
  const char* group_column;  // the dimension's coarsest attribute
};

const std::vector<AdhocDim>& AdhocDims() {
  static const std::vector<AdhocDim> dims = [] {
    using namespace dpstarj::ssb;
    std::vector<AdhocDim> d;
    d.push_back({kDate, kJoinDate,
                 {{"year", kYearLo, kYearHi}, {"month", 1, 12}, {"daynuminyear", 1, 366}},
                 "year"});
    d.push_back({kCustomer, kJoinCust,
                 {{"region", 0, 0, &Regions()},
                  {"nation", 0, 0, &Nations()},
                  {"city", 0, 0, &Cities()},
                  {"zip", 0, kNumZip - 1}},
                 "region"});
    d.push_back({kSupplier, kJoinSupp,
                 {{"region", 0, 0, &Regions()},
                  {"nation", 0, 0, &Nations()},
                  {"city", 0, 0, &Cities()}},
                 "region"});
    d.push_back({kPart, kJoinPart,
                 {{"mfgr", 0, 0, &Mfgrs()},
                  {"category", 0, 0, &Categories()},
                  {"brand", 0, 0, &Brands()}},
                 "mfgr"});
    return d;
  }();
  return dims;
}

/// One execution signature: which dimensions join, the predicate attribute
/// of each, COUNT or SUM, and whether it groups by its first dimension.
struct AdhocSignature {
  int attr[4] = {-1, -1, -1, -1};  // -1: dimension not joined
  bool sum = false;
  bool grouped = false;
};

class AdhocCold final : public Workload {
 public:
  static constexpr int kWarmupOps = 48;
  /// Requests per second a run is sized for (measured on a 4-core x86-64
  /// host); the op count never drops below kMinTimedRequests.
  static constexpr double kOpsPerSecond = 450.0;

  AdhocCold(WorkloadConfig config, uint64_t seed) : Workload(std::move(config), seed) {
    std::vector<AdhocSignature> all;
    const auto& dims = AdhocDims();
    // Mixed-radix walk over (attr or absent) per dimension.
    int radix[4];
    int combos = 1;
    for (int d = 0; d < 4; ++d) {
      radix[d] = static_cast<int>(dims[d].attrs.size()) + 1;
      combos *= radix[d];
    }
    for (int c = 1; c < combos; ++c) {
      AdhocSignature base;
      for (int d = 0, rest = c; d < 4; ++d) {
        base.attr[d] = rest % radix[d] - 1;
        rest /= radix[d];
      }
      for (int variant = 0; variant < 4; ++variant) {
        AdhocSignature s = base;
        s.sum = (variant & 1) != 0;
        s.grouped = (variant & 2) != 0;
        all.push_back(s);
      }
    }
    // Every seed draws from the whole space (1276 signatures, 40 times the
    // plan cache's capacity), so the mix of compile costs is the same for
    // every seed and only the order differs.
    pool_ = std::move(all);
  }

  std::vector<Op> WarmupOps() const override {
    std::vector<Op> ops;
    for (uint64_t j = 0; j < kWarmupOps; ++j) {
      ops.push_back(Make(kWarmBase + j, StreamEpsilon(WarmEpsilonIndex(j))));
    }
    return ops;
  }

  Op MakeOp(uint64_t i) const override { return Make(i, StreamEpsilon(i)); }

  uint64_t FixedOpCount(double seconds) const override {
    return std::max(kMinTimedRequests,
                    static_cast<uint64_t>(std::ceil(seconds * kOpsPerSecond)));
  }

 private:
  Op Make(uint64_t index, double epsilon) const {
    const AdhocSignature& sig = pool_[Mix64(seed_ ^ kSaltShape, index) % pool_.size()];
    Rng r(Mix64(seed_ ^ kSaltConst, index));
    const auto& dims = AdhocDims();
    std::string from = "Lineorder";
    std::string where;
    std::string group;
    std::string signature = sig.sum ? "sum" : "count";
    for (int d = 0; d < 4; ++d) {
      if (sig.attr[d] < 0) continue;
      const AdhocDim& dim = dims[d];
      const AdhocAttr& attr = dim.attrs[sig.attr[d]];
      from += std::string(", ") + dim.table;
      if (!where.empty()) where += " AND ";
      where += dim.join;
      // A range covering a quarter to all but one value of the domain keeps
      // most answers non-empty even when four dimensions filter together; a
      // full-domain range would bind to no predicate, another signature.
      const int n = attr.size();
      const int width = static_cast<int>(r.UniformInt((n + 3) / 4, n - 1));
      const int lo = static_cast<int>(r.UniformInt(0, n - width));
      const int hi = lo + width - 1;
      const std::string col = std::string(dim.table) + "." + attr.column;
      if (attr.names != nullptr) {
        where += lo == hi ? " AND " + col + " = " + Quoted((*attr.names)[lo])
                          : " AND " + col + " BETWEEN " + Quoted((*attr.names)[lo]) +
                                " AND " + Quoted((*attr.names)[hi]);
      } else {
        where += Format(" AND %s BETWEEN %d AND %d", col.c_str(), attr.lo + lo,
                        attr.lo + hi);
      }
      if (sig.grouped && group.empty()) group = std::string(dim.table) + "." + dim.group_column;
      signature += std::string("|") + dim.table + "." + attr.column;
    }
    QuerySpec q;
    q.sql = std::string("SELECT ") + (sig.sum ? "sum(Lineorder.revenue)" : "count(*)") +
            (group.empty() ? "" : ", " + group) + " FROM " + from + " WHERE " + where +
            (group.empty() ? "" : " GROUP BY " + group);
    q.epsilon = epsilon;
    q.grouped = !group.empty();
    q.signature = signature + (group.empty() ? "" : "|by " + group);
    Op op;
    op.index = index;
    op.queries = {std::move(q)};
    Encode(&op);
    return op;
  }

  std::vector<AdhocSignature> pool_;
};

// ------------------------------------------------------------------------
// batch_ingest: four dashboard batches of 16, then 2,000 Lineorder rows.

class BatchIngest final : public Workload {
 public:
  static constexpr int kBatchSize = 16;
  static constexpr int kBatchesPerCycle = 4;
  static constexpr int kOpsPerCycle = kBatchesPerCycle + 1;
  /// Cycles per second a run is sized for (measured on a 4-core x86-64
  /// host); a run never has fewer than kMinTimedRequests requests.
  static constexpr double kCyclesPerSecond = 10.0;
  /// Nor more than this many cycles: the fact table then ends at 680,000
  /// rows, where the nine plans still fit the plan cache's 256 MB byte
  /// budget (past it, evictions would turn extends into recompiles).
  static constexpr uint64_t kMaxCycles = 280;

  using Workload::Workload;

  std::vector<Op> WarmupOps() const override {
    // A batch touching every signature, an ingest, and a second batch — so
    // each setup compiles all plans and extends them once.
    std::vector<Op> ops;
    ops.push_back(MakeBatch(kWarmBase, 0, 0, /*warm=*/true));
    ops.push_back(MakeIngest(kWarmBase + 1, 0));
    ops.push_back(MakeBatch(kWarmBase + 2, 1, 1, /*warm=*/true));
    return ops;
  }

  Op MakeOp(uint64_t i) const override {
    const uint64_t cycle = i / kOpsPerCycle;
    const uint64_t pos = i % kOpsPerCycle;
    if (pos == kBatchesPerCycle) return MakeIngest(i, cycle + 1);
    return MakeBatch(i, cycle * kBatchesPerCycle + pos, /*epoch=*/1 + cycle, false);
  }

  uint64_t FixedOpCount(double seconds) const override {
    const uint64_t min_cycles = (kMinTimedRequests + kOpsPerCycle - 1) / kOpsPerCycle;
    const auto cycles = static_cast<uint64_t>(std::ceil(seconds * kCyclesPerSecond));
    return std::clamp(cycles, min_cycles, kMaxCycles) * kOpsPerCycle;
  }

 private:
  Op MakeBatch(uint64_t index, uint64_t batch, uint64_t epoch, bool warm) const {
    Rng r(Mix64(seed_ ^ kSaltConst, index));
    const PaperParams shared = DrawPaperParams(r);
    Op op;
    op.kind = OpKind::kWorkload;
    op.index = index;
    op.expected_epoch = epoch;
    const uint64_t first_shape = warm ? 0 : Mix64(seed_ ^ kSaltShape, index);
    for (int k = 0; k < kBatchSize; ++k) {
      PaperParams p = shared;  // date range and regions shared batch-wide
      DrawVaried(r, &p);
      const uint64_t q = batch * kBatchSize + static_cast<uint64_t>(k);
      const double eps = warm ? StreamEpsilon(WarmEpsilonIndex(q)) : StreamEpsilon(q);
      op.queries.push_back(PaperQuery(static_cast<int>((first_shape + k) % kNumPaper),
                                      p, true, eps));
    }
    Encode(&op);
    return op;
  }

  // Ingest number n (0 = the warm-up one).
  Op MakeIngest(uint64_t index, uint64_t n) const {
    Op op;
    op.kind = OpKind::kIngest;
    op.index = index;
    op.expected_epoch = n + 1;
    op.rows = IngestRows(n);
    op.expected_rows_total =
        base_fact_rows_ + static_cast<int64_t>(n + 1) * static_cast<int64_t>(op.rows.size());
    Encode(&op);
    return op;
  }
};

}  // namespace

Workload::Workload(WorkloadConfig config, uint64_t seed)
    : config_(std::move(config)),
      seed_(seed),
      sizes_(dpstarj::ssb::SsbSizes::ForScaleFactor(config_.scale_factor)),
      base_fact_rows_(sizes_.lineorder) {}

std::vector<std::vector<Value>> Workload::IngestRows(uint64_t n) const {
  constexpr int kRows = 2000;
  Rng r(Mix64(seed_ ^ kSaltRows, n));
  std::vector<std::vector<Value>> rows;
  rows.reserve(kRows);
  for (int k = 0; k < kRows; ++k) {
    rows.push_back({Value(int64_t{100000000} + static_cast<int64_t>(n) * kRows + k),
                    Value(r.UniformInt(1, sizes_.customer)),
                    Value(r.UniformInt(1, sizes_.part)),
                    Value(r.UniformInt(1, sizes_.supplier)),
                    Value(r.UniformInt(1, sizes_.date)),
                    Value(r.UniformInt(1, 50)),
                    // Quarters are exact in binary and in the JSON text.
                    Value(static_cast<double>(r.UniformInt(400, 40000)) / 4.0),
                    Value(static_cast<double>(r.UniformInt(40, 4000)) / 4.0)});
  }
  return rows;
}

Result<std::unique_ptr<Workload>> Workload::Create(const std::string& name,
                                                   uint64_t seed, double scale) {
  WorkloadConfig c;
  c.name = name;
  if (name == "fresh_scan") {
    c.scale_factor = 0.1 * scale;
    c.connections = 2;
    return std::unique_ptr<Workload>(new FreshScan(c, seed));
  }
  if (name == "adhoc_cold") {
    c.scale_factor = 0.02 * scale;
    c.connections = 1;
    return std::unique_ptr<Workload>(new AdhocCold(c, seed));
  }
  if (name == "batch_ingest") {
    c.scale_factor = 0.02 * scale;
    c.connections = 1;
    return std::unique_ptr<Workload>(new BatchIngest(c, seed));
  }
  return Status::InvalidArgument(Format("unknown workload '%s'", name.c_str()));
}

double Workload::StreamEpsilon(uint64_t q) const {
  // An odd multiplier coprime to 3 permutes Z/(3·2^18): distinct q below the
  // period get distinct ε. It is the period over the golden ratio, so any run
  // of consecutive q spreads evenly over [0.25, 1) and the mean ε of a run
  // does not depend on the seed, which only shifts the sequence.
  const uint64_t k = (q * 486043 + Mix64(seed_) % kEpsilonPeriod) % kEpsilonPeriod;
  return static_cast<double>((uint64_t{1} << 18) + k) / static_cast<double>(1 << 20);
}

void Workload::Encode(Op* op) {
  using dpstarj::net::Json;
  switch (op->kind) {
    case OpKind::kQuery: {
      Json body = Json::Object();
      body.Set("sql", Json::Str(op->queries[0].sql));
      body.Set("epsilon", Json::Number(op->queries[0].epsilon));
      body.Set("tenant", Json::Str(kTenant));
      op->path = "/v1/query";
      op->body = body.Dump();
      return;
    }
    case OpKind::kWorkload: {
      Json queries = Json::Array();
      for (const QuerySpec& q : op->queries) {
        Json entry = Json::Object();
        entry.Set("sql", Json::Str(q.sql));
        entry.Set("epsilon", Json::Number(q.epsilon));
        queries.Append(std::move(entry));
      }
      Json body = Json::Object();
      body.Set("tenant", Json::Str(kTenant));
      body.Set("queries", std::move(queries));
      op->path = "/v1/workload";
      op->body = body.Dump();
      return;
    }
    case OpKind::kIngest: {
      std::string body = "{\"table\":\"Lineorder\",\"rows\":[";
      char cell[64];
      for (size_t i = 0; i < op->rows.size(); ++i) {
        body += i == 0 ? "[" : ",[";
        for (size_t c = 0; c < op->rows[i].size(); ++c) {
          const Value& v = op->rows[i][c];
          if (v.is_int64()) {
            std::snprintf(cell, sizeof(cell), "%s%lld", c == 0 ? "" : ",",
                          static_cast<long long>(v.AsInt64()));
          } else {
            std::snprintf(cell, sizeof(cell), "%s%.17g", c == 0 ? "" : ",",
                          v.AsDouble());
          }
          body += cell;
        }
        body += "]";
      }
      body += "]}";
      op->path = "/v1/ingest";
      op->body = std::move(body);
      return;
    }
  }
}

uint64_t Workload::InputHash(uint64_t timed_ops) const {
  uint64_t h = Fnv1a("");
  for (const Op& op : WarmupOps()) h = Fnv1a(op.path + "\n" + op.body + "\n", h);
  for (uint64_t i = 0; i < timed_ops; ++i) {
    const Op op = MakeOp(i);
    h = Fnv1a(op.path + "\n" + op.body + "\n", h);
  }
  return h;
}

}  // namespace perfbench
