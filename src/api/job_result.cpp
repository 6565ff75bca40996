#include "api/job_result.h"

#include "util/error.h"

namespace sdpm::api {

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kNone: return "";
    case ErrorCode::kExecError: return "EXEC_ERROR";
    case ErrorCode::kJobTimeout: return "JOB_TIMEOUT";
    case ErrorCode::kQuarantined: return "QUARANTINED";
    case ErrorCode::kResultTooLarge: return "RESULT_TOO_LARGE";
    case ErrorCode::kFrameTooLarge: return "FRAME_TOO_LARGE";
    case ErrorCode::kCancelled: return "CANCELLED";
  }
  return "";
}

SchemeOutcome outcome_from(const experiments::SchemeResult& result) {
  SchemeOutcome out;
  out.scheme = experiments::to_string(result.scheme);
  out.energy_j = result.energy_j;
  out.execution_ms = result.execution_ms;
  out.requests = result.requests;
  out.normalized_energy = result.normalized_energy;
  out.normalized_time = result.normalized_time;
  out.mispredict_pct = result.mispredict_pct;
  out.power_calls = result.power_calls;
  return out;
}

Json JobResult::to_json() const {
  Json schemes_json = Json::array();
  for (const SchemeOutcome& s : schemes) {
    Json entry = Json::object();
    entry.set("scheme", s.scheme)
        .set("energy_j", s.energy_j)
        .set("execution_ms", s.execution_ms)
        .set("requests", s.requests)
        .set("normalized_energy", s.normalized_energy)
        .set("normalized_time", s.normalized_time)
        .set("power_calls", s.power_calls);
    if (s.mispredict_pct.has_value()) {
      entry.set("mispredict_pct", *s.mispredict_pct);
    }
    schemes_json.push_back(std::move(entry));
  }
  Json json = Json::object();
  json.set("label", label)
      .set("benchmark", benchmark)
      .set("transform", transform)
      .set("schemes", std::move(schemes_json))
      .set("wall_ms", wall_ms);
  if (!analysis_json.empty()) {
    json.set("analysis", Json::parse(analysis_json));
  }
  if (!notes.empty()) {
    Json notes_json = Json::array();
    for (const std::string& note : notes) notes_json.push_back(Json(note));
    json.set("notes", std::move(notes_json));
  }
  return json;
}

JobResult JobResult::from_json(const Json& json) {
  if (!json.is_object()) throw Error("JobResult: expected a JSON object");
  JobResult result;
  result.label = json.at("label").as_string();
  result.benchmark = json.at("benchmark").as_string();
  result.transform = json.at("transform").as_string();
  for (const Json& entry : json.at("schemes").as_array()) {
    SchemeOutcome s;
    s.scheme = entry.at("scheme").as_string();
    s.energy_j = entry.at("energy_j").as_double();
    s.execution_ms = entry.at("execution_ms").as_double();
    s.requests = entry.at("requests").as_int();
    s.normalized_energy = entry.at("normalized_energy").as_double();
    s.normalized_time = entry.at("normalized_time").as_double();
    s.power_calls = entry.at("power_calls").as_int();
    if (const Json* mp = entry.find("mispredict_pct")) {
      s.mispredict_pct = mp->as_double();
    }
    result.schemes.push_back(std::move(s));
  }
  if (const Json* wall = json.find("wall_ms")) {
    result.wall_ms = wall->as_double();
  }
  if (const Json* analysis = json.find("analysis")) {
    result.analysis_json = analysis->dump();
  }
  if (const Json* notes = json.find("notes")) {
    for (const Json& note : notes->as_array()) {
      result.notes.push_back(note.as_string());
    }
  }
  return result;
}

}  // namespace sdpm::api
