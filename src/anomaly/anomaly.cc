#include "anomaly/anomaly.h"

#include <algorithm>
#include <cmath>

#include "core/session.h"
#include "model/model.h"

namespace laws {

Result<GroupAnomalyReport> ScoreGroups(const CapturedModel& model,
                                       const AnomalyOptions& options) {
  if (!model.grouped) {
    return Status::InvalidArgument("group screening needs a grouped model");
  }
  LAWS_ASSIGN_OR_RETURN(ModelPtr fn, ModelFromSource(model.model_source));
  LAWS_ASSIGN_OR_RETURN(ParameterView params,
                        ParametersOf(model, fn->num_parameters()));

  std::vector<double> rses(params.size()), r2s(params.size());
  for (size_t r = 0; r < params.size(); ++r) {
    rses[r] = params.residual_se(r);
    r2s[r] = params.r_squared(r);
  }
  GroupAnomalyReport report;
  report.median_residual_se = MedianOf(rses);
  report.median_r_squared = MedianOf(r2s);
  const double rse_cut =
      options.rse_factor * std::max(report.median_residual_se, 1e-300);

  report.ranked.reserve(params.size());
  for (size_t r = 0; r < params.size(); ++r) {
    GroupAnomalyScore s;
    s.group_key = params.key(r);
    s.residual_se = rses[r];
    s.r_squared = r2s[r];
    const double rse_ratio =
        rses[r] / std::max(report.median_residual_se, 1e-300);
    const double r2_penalty = std::max(0.0, 1.0 - std::max(r2s[r], 0.0));
    s.score = rse_ratio + r2_penalty;
    s.flagged =
        r2s[r] < options.r_squared_threshold || rses[r] > rse_cut;
    if (s.flagged) ++report.flagged;
    report.ranked.push_back(s);
  }
  std::sort(report.ranked.begin(), report.ranked.end(),
            [](const GroupAnomalyScore& a, const GroupAnomalyScore& b) {
              return a.score > b.score;
            });
  return report;
}

Result<std::vector<TupleOutlier>> DetectOutlierTuples(
    const Table& table, const CapturedModel& model, double z_threshold) {
  if (!model.grouped) {
    return Status::InvalidArgument("tuple screening needs a grouped model");
  }
  LAWS_ASSIGN_OR_RETURN(ModelPtr fn, ModelFromSource(model.model_source));
  LAWS_ASSIGN_OR_RETURN(ParameterView params,
                        ParametersOf(model, fn->num_parameters()));

  LAWS_ASSIGN_OR_RETURN(const Column* group,
                        table.ColumnByName(model.group_column));
  std::vector<const Column*> inputs;
  for (const auto& name : model.input_columns) {
    LAWS_ASSIGN_OR_RETURN(const Column* c, table.ColumnByName(name));
    inputs.push_back(c);
  }
  LAWS_ASSIGN_OR_RETURN(const Column* output,
                        table.ColumnByName(model.output_column));

  std::vector<TupleOutlier> outliers;
  Vector x(inputs.size()), beta;
  for (size_t i = 0; i < table.num_rows(); ++i) {
    if (group->IsNull(i) || output->IsNull(i)) continue;
    const int64_t key = group->Int64At(i);
    const size_t g = params.Find(key);
    if (g == params.size()) continue;
    params.Params(g, &beta);
    bool ok = true;
    for (size_t c = 0; c < inputs.size(); ++c) {
      if (inputs[c]->IsNull(i)) {
        ok = false;
        break;
      }
      auto v = inputs[c]->NumericAt(i);
      if (!v.ok()) return v.status();
      x[c] = *v;
    }
    if (!ok) continue;
    const double predicted = fn->Evaluate(x, beta);
    LAWS_ASSIGN_OR_RETURN(double observed, output->NumericAt(i));
    const double denom = std::max(params.residual_se(g), 1e-300);
    const double z = (observed - predicted) / denom;
    if (std::fabs(z) >= z_threshold) {
      outliers.push_back(TupleOutlier{i, key, observed, predicted, z});
    }
  }
  std::sort(outliers.begin(), outliers.end(),
            [](const TupleOutlier& a, const TupleOutlier& b) {
              return std::fabs(a.z_score) > std::fabs(b.z_score);
            });
  return outliers;
}

}  // namespace laws
