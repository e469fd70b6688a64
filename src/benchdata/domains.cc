#include "benchdata/domains.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "text/tokenizer.h"

namespace d3l::benchdata {

namespace {

// ---------------------------------------------------------------------------
// Word pools. Sizes are modest; distinct values come from composition.
// ---------------------------------------------------------------------------

const std::vector<std::string> kFirstNames = {
    "James", "Mary", "John", "Patricia", "Robert", "Jennifer", "Michael", "Linda",
    "David", "Elizabeth", "William", "Barbara", "Richard", "Susan", "Joseph",
    "Jessica", "Thomas", "Sarah", "Charles", "Karen", "Christopher", "Nancy",
    "Daniel", "Lisa", "Matthew", "Margaret", "Anthony", "Betty", "Donald",
    "Sandra", "Mark", "Ashley", "Paul", "Dorothy", "Steven", "Kimberly", "Andrew",
    "Emily", "Kenneth", "Donna", "George", "Michelle", "Joshua", "Carol", "Kevin",
    "Amanda", "Brian", "Melissa", "Edward", "Deborah", "Ronald", "Stephanie",
    "Timothy", "Rebecca", "Jason", "Laura", "Jeffrey", "Helen", "Ryan", "Sharon",
    "Gareth", "Siobhan", "Callum", "Aisling"};

const std::vector<std::string> kSurnames = {
    "Smith", "Jones", "Taylor", "Brown", "Williams", "Wilson", "Johnson", "Davies",
    "Robinson", "Wright", "Thompson", "Evans", "Walker", "White", "Roberts",
    "Green", "Hall", "Wood", "Jackson", "Clarke", "Patel", "Khan", "Lewis",
    "James", "Phillips", "Mason", "Mitchell", "Rose", "Davis", "Rodgers", "Parker",
    "Price", "Bennett", "Young", "Griffiths", "Edwards", "Collins", "Morris",
    "Hughes", "Watson", "Carter", "Bell", "Murphy", "Bailey", "Cooper", "Richardson",
    "Cox", "Turner", "Ward", "Gray", "Stewart", "Harrison", "Fletcher", "Shaw",
    "Begum", "Ali", "Kaur", "Singh", "OBrien", "McCarthy", "Doyle", "Walsh"};

const std::vector<std::string> kStreetNames = {
    "High", "Church", "Station", "Victoria", "Green", "Park", "Mill", "London",
    "Main", "Chapel", "School", "Queens", "Kings", "New", "Grange", "Manor",
    "Springfield", "York", "Windsor", "Albert", "Richmond", "Oxford", "Portland",
    "Botanic", "Mirabel", "Rupert", "Cambridge", "Stanley", "Alexandra", "Derby",
    "Clarence", "Warwick"};

const std::vector<std::string> kStreetSuffixFull = {"Street", "Road", "Avenue",
                                                    "Lane", "Drive", "Close",
                                                    "Court", "Gardens"};
const std::vector<std::string> kStreetSuffixAbbrev = {"St", "Rd", "Ave", "Ln",
                                                      "Dr", "Cl", "Ct", "Gdns"};

const std::vector<std::string> kCities = {
    "Manchester", "London", "Birmingham", "Leeds", "Glasgow", "Sheffield",
    "Bradford", "Liverpool", "Edinburgh", "Bristol", "Cardiff", "Belfast",
    "Leicester", "Coventry", "Nottingham", "Newcastle", "Sunderland", "Brighton",
    "Hull", "Plymouth", "Stoke", "Wolverhampton", "Derby", "Swansea",
    "Southampton", "Salford", "Aberdeen", "Bolton", "Norwich", "Luton", "Swindon",
    "Dundee", "Oxford", "Cambridge", "York", "Exeter", "Gloucester", "Bath",
    "Preston", "Blackpool", "Middlesbrough", "Huddersfield", "Ipswich", "Reading",
    "Northampton", "Warrington", "Stockport", "Rochdale", "Oldham", "Bury",
    "Wigan", "Doncaster", "Rotherham", "Barnsley", "Wakefield", "Halifax"};

const std::vector<std::string> kCounties = {
    "Greater Manchester", "West Midlands", "Merseyside", "South Yorkshire",
    "West Yorkshire", "Tyne and Wear", "Lancashire", "Cheshire", "Kent", "Essex",
    "Surrey", "Hampshire", "Devon", "Norfolk", "Suffolk", "Somerset",
    "Derbyshire", "Nottinghamshire", "Lincolnshire", "Cumbria", "Durham",
    "Cornwall", "Dorset", "Wiltshire"};

const std::vector<std::string> kCountries = {
    "United Kingdom", "Ireland", "France", "Germany", "Spain", "Italy", "Portugal",
    "Netherlands", "Belgium", "Denmark", "Sweden", "Norway", "Finland", "Poland",
    "Austria", "Switzerland", "Greece", "Hungary", "Romania", "Bulgaria",
    "Croatia", "Slovenia", "Slovakia", "Estonia", "Latvia", "Lithuania", "Malta",
    "Cyprus", "Iceland", "Luxembourg", "Canada", "Australia"};

const std::vector<std::string> kColors = {
    "Red", "Blue", "Green", "Yellow", "Purple", "Orange", "Black", "White",
    "Grey", "Brown", "Pink", "Cyan", "Magenta", "Teal", "Maroon", "Navy",
    "Olive", "Silver", "Gold", "Crimson"};

const std::vector<std::string> kAdjectives = {
    "Swift", "Bright", "Silent", "Golden", "Rapid", "Crystal", "Solar", "Lunar",
    "Prime", "Apex", "Noble", "Vivid", "Amber", "Cobalt", "Emerald", "Scarlet",
    "Sterling", "Summit", "Atlas", "Beacon", "Cedar", "Delta", "Echo", "Falcon",
    "Granite", "Harbor", "Ivory", "Jade"};

const std::vector<std::string> kNouns = {
    "Engine", "Widget", "Panel", "Bracket", "Sensor", "Module", "Valve", "Filter",
    "Router", "Switch", "Cable", "Monitor", "Keyboard", "Printer", "Scanner",
    "Battery", "Charger", "Adapter", "Speaker", "Camera", "Tablet", "Drone",
    "Compass", "Lantern", "Kettle", "Blender", "Toaster", "Heater"};

const std::vector<std::string> kJobTitles = {
    "Software Engineer", "Data Analyst", "Project Manager", "Nurse", "Teacher",
    "Accountant", "Pharmacist", "Electrician", "Plumber", "Architect", "Surveyor",
    "Paramedic", "Librarian", "Chef", "Journalist", "Solicitor", "Radiographer",
    "Physiotherapist", "Midwife", "Optometrist", "Economist", "Statistician",
    "Receptionist", "Caretaker"};

const std::vector<std::string> kDepartments = {
    "Cardiology", "Oncology", "Radiology", "Paediatrics", "Neurology",
    "Orthopaedics", "Dermatology", "Haematology", "Finance", "Procurement",
    "Human Resources", "Estates", "Pathology", "Pharmacy", "Outpatients",
    "Emergency", "Maternity", "Psychiatry"};

const std::vector<std::string> kCompanyWords = {
    "Northern", "United", "Global", "Pennine", "Mersey", "Thames", "Avon",
    "Consolidated", "Allied", "Regional", "Central", "Metro", "Civic", "Anchor",
    "Crown", "Heritage", "Pioneer", "Quantum", "Vertex", "Zenith", "Horizon",
    "Cascade", "Momentum", "Synergy"};

const std::vector<std::string> kCompanySuffix = {"Ltd", "Limited", "PLC", "LLP",
                                                 "Group", "Holdings"};

const std::vector<std::string> kEmailDomains = {
    "example.com", "mail.co.uk",  "inbox.org",   "post.net",  "webmail.io",
    "corp.co.uk",  "company.com", "service.org", "office.net", "contact.uk"};

const std::vector<std::string> kSchoolKinds = {"Primary School", "High School",
                                               "Academy", "Grammar School",
                                               "Community College", "Infant School"};

const std::vector<std::string> kDrugSyllablesA = {"Ami", "Beta", "Cefa", "Doxa",
                                                  "Epi",  "Fluo", "Gaba", "Hydro",
                                                  "Iso",  "Keto", "Lora", "Meto"};
const std::vector<std::string> kDrugSyllablesB = {"cillin", "zepam", "statin",
                                                  "prazole", "olol",  "micin",
                                                  "dipine", "sartan", "floxacin",
                                                  "tidine"};

// Syllable-composed proper nouns: real lakes carry tens of thousands of
// distinct surnames/street/brand tokens, far more than any fixed pool. The
// cross product below yields ~5,800 distinct capitalized words, keeping
// token inventories realistically diverse across independent datasets.
const std::vector<std::string> kSyllA = {
    "Whit", "Har",  "Pem",  "Ash",  "Bro",   "Cald", "Dun",  "Fair",
    "Gra",  "Hol",  "Kirk", "Lang", "Mar",   "Nor",  "Okes", "Pres",
    "Quin", "Rad",  "Stan", "Thorn", "Win",  "Wal",  "Yate", "Bex"};
const std::vector<std::string> kSyllB = {
    "comb", "ring", "ber",   "field", "ley",  "ston", "wick", "bourn",
    "ford", "gate", "hurst", "mead",  "pool", "shaw", "worth", "den",
    "low",  "mark", "sett",  "ton"};
const std::vector<std::string> kSyllC = {"",    "e",   "s",    "er",
                                         "by",  "ham", "wood", "side",
                                         "well", "croft", "dale", "moor"};

std::string SyllableWord(Rng* rng) {
  return rng->Pick(kSyllA) + rng->Pick(kSyllB) + rng->Pick(kSyllC);
}

// ---------------------------------------------------------------------------
// Generator helpers.
// ---------------------------------------------------------------------------

std::string TwoDigits(int64_t v) {
  char buf[8];
  snprintf(buf, sizeof(buf), "%02d", static_cast<int>(v));
  return buf;
}

std::string GeneratePostcode(Rng* rng, size_t variant) {
  static const std::string kAreas = "BLMSWNEGC";
  std::string pc;
  pc += kAreas[rng->Uniform(kAreas.size())];
  if (rng->Chance(0.5)) pc += static_cast<char>('A' + rng->Uniform(26));
  pc += std::to_string(rng->UniformInt(1, 28));
  std::string inward = std::to_string(rng->UniformInt(0, 9));
  inward += static_cast<char>('A' + rng->Uniform(26));
  inward += static_cast<char>('A' + rng->Uniform(26));
  if (variant == 1) {
    // Lowercase, no space — a common dirty representation.
    std::string out = pc + inward;
    for (char& c : out) c = static_cast<char>(std::tolower(c));
    return out;
  }
  return pc + " " + inward;
}

std::string GenerateDate(Rng* rng, size_t variant) {
  static const std::vector<std::string> kMonths = {"Jan", "Feb", "Mar", "Apr",
                                                   "May", "Jun", "Jul", "Aug",
                                                   "Sep", "Oct", "Nov", "Dec"};
  int64_t y = rng->UniformInt(1995, 2025);
  int64_t m = rng->UniformInt(1, 12);
  int64_t d = rng->UniformInt(1, 28);
  switch (variant) {
    case 1:
      return TwoDigits(d) + "/" + TwoDigits(m) + "/" + std::to_string(y);
    case 2:
      return std::to_string(d) + " " + kMonths[static_cast<size_t>(m - 1)] + " " +
             std::to_string(y);
    default:
      return std::to_string(y) + "-" + TwoDigits(m) + "-" + TwoDigits(d);
  }
}

std::string GenerateTimeRange(Rng* rng, size_t variant) {
  int64_t open = rng->UniformInt(6, 10);
  int64_t close = rng->UniformInt(16, 21);
  if (variant == 1) {
    return std::to_string(open) + "am-" + std::to_string(close - 12) + "pm";
  }
  return TwoDigits(open) + ":00-" + TwoDigits(close) + ":00";
}

std::string GeneratePhone(Rng* rng, size_t variant) {
  int64_t area = rng->UniformInt(113, 199);
  int64_t mid = rng->UniformInt(200, 999);
  int64_t tail = rng->UniformInt(0, 9999);
  char buf[32];
  switch (variant) {
    case 1:
      snprintf(buf, sizeof(buf), "0%d-%d-%04d", static_cast<int>(area),
               static_cast<int>(mid), static_cast<int>(tail));
      break;
    case 2:
      snprintf(buf, sizeof(buf), "(0%d) %d%04d", static_cast<int>(area),
               static_cast<int>(mid), static_cast<int>(tail));
      break;
    default:
      snprintf(buf, sizeof(buf), "0%d %d %04d", static_cast<int>(area),
               static_cast<int>(mid), static_cast<int>(tail));
  }
  return buf;
}

std::string FormatFixed(double v, int decimals) {
  char buf[64];
  snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

}  // namespace

DomainRegistry::DomainRegistry() {
  auto add = [this](std::string name, DomainKind kind,
                    std::vector<std::string> synonyms, size_t variants,
                    bool entity) {
    DomainSpec s;
    s.id = static_cast<uint32_t>(specs_.size());
    s.name = std::move(name);
    s.kind = kind;
    s.name_synonyms = std::move(synonyms);
    s.num_variants = variants;
    s.entity_like = entity;
    specs_.push_back(std::move(s));
  };

  // --- text domains -------------------------------------------------------
  add("person_name", DomainKind::kText,
      {"Name", "Full Name", "Person", "Contact Name", "Employee"}, 3, true);
  add("gp_practice", DomainKind::kText,
      {"Practice Name", "Practice", "GP", "Surgery", "Provider"}, 2, true);
  add("company", DomainKind::kText,
      {"Company", "Organisation", "Business Name", "Supplier", "Employer"}, 2, true);
  add("product", DomainKind::kText,
      {"Product", "Item", "Product Name", "Article", "Model"}, 2, true);
  add("school", DomainKind::kText,
      {"School", "School Name", "Institution", "Establishment"}, 2, true);
  add("drug", DomainKind::kText,
      {"Drug", "Medication", "Drug Name", "Medicine", "Prescription"}, 2, true);
  add("street_address", DomainKind::kText,
      {"Address", "Street", "Address Line 1", "Location", "Street Address"}, 2,
      false);
  add("city", DomainKind::kText, {"City", "Town", "City Name", "Settlement"}, 2,
      false);
  add("county", DomainKind::kText, {"County", "Region", "Area", "District"}, 1,
      false);
  add("postcode", DomainKind::kText,
      {"Postcode", "Post Code", "Postal Code", "Zip"}, 2, false);
  add("email", DomainKind::kText, {"Email", "E-mail", "Email Address", "Contact"},
      2, false);
  add("phone", DomainKind::kText,
      {"Phone", "Telephone", "Phone Number", "Tel", "Contact Number"}, 3, false);
  add("date", DomainKind::kText,
      {"Date", "Start Date", "Recorded Date", "Updated", "Effective Date"}, 3,
      false);
  add("time_range", DomainKind::kText,
      {"Hours", "Opening hours", "Open Times", "Operating Hours"}, 2, false);
  add("url", DomainKind::kText, {"Website", "URL", "Web Address", "Homepage"}, 2,
      false);
  add("country", DomainKind::kText, {"Country", "Nation", "Country Name"}, 1,
      false);
  add("color", DomainKind::kText, {"Colour", "Color", "Shade"}, 1, false);
  add("job_title", DomainKind::kText, {"Job Title", "Role", "Occupation",
                                       "Position"},
      1, false);
  add("department", DomainKind::kText,
      {"Department", "Dept", "Division", "Unit", "Specialty"}, 1, false);
  add("id_code", DomainKind::kText,
      {"ID", "Code", "Reference", "Record ID", "Identifier"}, 2, false);

  // --- numeric domains (distinct distributions for KS signal) -------------
  add("money", DomainKind::kNumeric,
      {"Payment", "Amount", "Cost", "Funding", "Spend"}, 2, false);
  add("age", DomainKind::kNumeric, {"Age", "Age Years", "Patient Age"}, 1, false);
  add("percentage", DomainKind::kNumeric,
      {"Percentage", "Percent", "Rate", "Proportion"}, 1, false);
  add("patient_count", DomainKind::kNumeric,
      {"Patients", "Patient Count", "Registered Patients", "List Size"}, 1,
      false);
  add("population", DomainKind::kNumeric,
      {"Population", "Residents", "Inhabitants"}, 1, false);
  add("year", DomainKind::kNumeric, {"Year", "Calendar Year", "YR"}, 1, false);
  add("rating", DomainKind::kNumeric, {"Rating", "Score", "Stars", "Grade"}, 1,
      false);
  add("weight", DomainKind::kNumeric, {"Weight", "Weight Kg", "Mass"}, 1, false);
  add("latitude", DomainKind::kNumeric, {"Latitude", "Lat"}, 1, false);
  add("longitude", DomainKind::kNumeric, {"Longitude", "Lng", "Lon"}, 1, false);
  add("price", DomainKind::kNumeric, {"Price", "Unit Price", "RRP"}, 2, false);
}

const DomainRegistry& DomainRegistry::Instance() {
  // d3l-lint: allow(naked-new) -- intentional static leak (never destroyed),
  // so generator threads can touch the registry during program teardown.
  static const DomainRegistry* kInstance = new DomainRegistry();
  return *kInstance;
}

std::vector<uint32_t> DomainRegistry::EntityDomains() const {
  std::vector<uint32_t> out;
  for (const DomainSpec& s : specs_) {
    if (s.entity_like) out.push_back(s.id);
  }
  return out;
}

std::vector<uint32_t> DomainRegistry::TextDomains() const {
  std::vector<uint32_t> out;
  for (const DomainSpec& s : specs_) {
    if (s.kind == DomainKind::kText) out.push_back(s.id);
  }
  return out;
}

std::vector<uint32_t> DomainRegistry::NumericDomains() const {
  std::vector<uint32_t> out;
  for (const DomainSpec& s : specs_) {
    if (s.kind == DomainKind::kNumeric) out.push_back(s.id);
  }
  return out;
}

uint32_t DomainRegistry::IdOf(const std::string& name) const {
  for (const DomainSpec& s : specs_) {
    if (s.name == name) return s.id;
  }
  fprintf(stderr, "unknown domain '%s'\n", name.c_str());
  abort();
}

std::string DomainRegistry::PickAttributeName(uint32_t id, Rng* rng) const {
  return rng->Pick(spec(id).name_synonyms);
}

std::string DomainRegistry::GenerateValue(uint32_t id, size_t variant,
                                          Rng* rng) const {
  const DomainSpec& s = spec(id);
  assert(variant < s.num_variants);
  const std::string& n = s.name;

  // Entity surnames/brand words mix a realistic fixed pool with syllable-
  // composed words so distinct datasets have distinct token inventories.
  auto surname = [&rng]() {
    return rng->Chance(0.75) ? SyllableWord(rng) : rng->Pick(kSurnames);
  };
  if (n == "person_name") {
    const std::string& f = rng->Pick(kFirstNames);
    std::string l = surname();
    if (variant == 1) return l + ", " + f;
    if (variant == 2) return std::string(1, f[0]) + ". " + l;
    return f + " " + l;
  }
  if (n == "gp_practice") {
    if (variant == 1) {
      return "Dr " + std::string(1, 'A' + static_cast<char>(rng->Uniform(26))) + " " +
             surname();
    }
    static const std::vector<std::string> kPracticeKinds = {
        "Medical Practice", "Health Centre", "Surgery", "Medical Centre",
        "Family Practice"};
    return surname() + " " + rng->Pick(kPracticeKinds);
  }
  if (n == "company") {
    std::string word = rng->Chance(0.6) ? SyllableWord(rng) : rng->Pick(kCompanyWords);
    std::string base = word + " " + rng->Pick(kNouns);
    return base + " " + (variant == 1 ? kCompanySuffix[0] : rng->Pick(kCompanySuffix));
  }
  if (n == "product") {
    std::string adj = rng->Chance(0.5) ? SyllableWord(rng) : rng->Pick(kAdjectives);
    std::string base = adj + " " + rng->Pick(kNouns);
    if (variant == 1) base.append(" ").append(std::to_string(rng->UniformInt(100, 999)));
    return base;
  }
  if (n == "school") {
    std::string place = rng->Chance(0.6) ? SyllableWord(rng) : rng->Pick(kCities);
    if (variant == 1) place = surname();
    return place + " " + rng->Pick(kSchoolKinds);
  }
  if (n == "drug") {
    std::string base = rng->Pick(kDrugSyllablesA) + rng->Pick(kDrugSyllablesB);
    if (variant == 1) base += " " + std::to_string(rng->UniformInt(1, 8) * 25) + "mg";
    return base;
  }
  if (n == "street_address") {
    const auto& suffixes = variant == 1 ? kStreetSuffixAbbrev : kStreetSuffixFull;
    size_t si = rng->Uniform(suffixes.size());
    std::string street =
        rng->Chance(0.6) ? SyllableWord(rng) : rng->Pick(kStreetNames);
    return std::to_string(rng->UniformInt(1, 180)) + " " + street + " " + suffixes[si];
  }
  if (n == "city") {
    std::string c = rng->Pick(kCities);
    if (variant == 1) {
      for (char& ch : c) ch = static_cast<char>(std::toupper(ch));
    }
    return c;
  }
  if (n == "county") return rng->Pick(kCounties);
  if (n == "postcode") return GeneratePostcode(rng, variant);
  if (n == "email") {
    std::string f = rng->Pick(kFirstNames);
    std::string l = rng->Pick(kSurnames);
    for (char& c : f) c = static_cast<char>(std::tolower(c));
    for (char& c : l) c = static_cast<char>(std::tolower(c));
    if (variant == 1) return f.substr(0, 1) + l + "@" + rng->Pick(kEmailDomains);
    return f + "." + l + "@" + rng->Pick(kEmailDomains);
  }
  if (n == "phone") return GeneratePhone(rng, variant);
  if (n == "date") return GenerateDate(rng, variant);
  if (n == "time_range") return GenerateTimeRange(rng, variant);
  if (n == "url") {
    std::string w = rng->Pick(kCompanyWords);
    for (char& c : w) c = static_cast<char>(std::tolower(c));
    if (variant == 1) return "www." + w + ".org";
    return "https://www." + w + ".co.uk";
  }
  if (n == "country") return rng->Pick(kCountries);
  if (n == "color") return rng->Pick(kColors);
  if (n == "job_title") return rng->Pick(kJobTitles);
  if (n == "department") return rng->Pick(kDepartments);
  if (n == "id_code") {
    std::string code;
    for (int i = 0; i < 3; ++i) code += static_cast<char>('A' + rng->Uniform(26));
    std::string digits = std::to_string(rng->UniformInt(1000, 9999));
    return variant == 1 ? code + digits : code + "-" + digits;
  }

  // Numeric domains.
  if (n == "money") {
    double v = std::exp(rng->Gaussian(8.0, 1.2));
    return variant == 1 ? std::to_string(static_cast<int64_t>(v)) : FormatFixed(v, 2);
  }
  if (n == "age") return std::to_string(rng->UniformInt(0, 99));
  if (n == "percentage") return FormatFixed(rng->UniformDouble(0, 100), 1);
  if (n == "patient_count") {
    return std::to_string(static_cast<int64_t>(std::exp(rng->Gaussian(7.6, 0.5))));
  }
  if (n == "population") return std::to_string(rng->UniformInt(1200, 9000000));
  if (n == "year") return std::to_string(rng->UniformInt(1950, 2025));
  if (n == "rating") return std::to_string(rng->UniformInt(1, 5));
  if (n == "weight") return FormatFixed(rng->Gaussian(75, 15), 1);
  if (n == "latitude") return FormatFixed(rng->UniformDouble(49.9, 60.8), 5);
  if (n == "longitude") return FormatFixed(rng->UniformDouble(-8.2, 1.8), 5);
  if (n == "price") {
    double v = rng->UniformDouble(0.5, 120.0);
    return variant == 1 ? FormatFixed(v, 0) : FormatFixed(v, 2);
  }

  fprintf(stderr, "GenerateValue: unhandled domain '%s'\n", n.c_str());
  abort();
}

std::unordered_map<std::string, std::vector<uint32_t>>
DomainRegistry::BuildKbVocabulary() const {
  std::unordered_map<std::string, std::vector<uint32_t>> vocab;
  auto add_tokens = [&vocab](const std::vector<std::string>& pool, uint32_t id) {
    for (const std::string& entry : pool) {
      for (const std::string& tok : Tokenize(entry)) {
        auto& classes = vocab[tok];
        bool present = false;
        for (uint32_t c : classes) {
          if (c == id) {
            present = true;
            break;
          }
        }
        if (!present) classes.push_back(id);
      }
    }
  };
  add_tokens(kFirstNames, IdOf("person_name"));
  add_tokens(kSurnames, IdOf("person_name"));
  add_tokens(kSurnames, IdOf("gp_practice"));
  add_tokens(kCompanyWords, IdOf("company"));
  add_tokens(kCompanySuffix, IdOf("company"));
  add_tokens(kAdjectives, IdOf("product"));
  add_tokens(kNouns, IdOf("product"));
  add_tokens(kCities, IdOf("city"));
  add_tokens(kCities, IdOf("school"));
  add_tokens(kSchoolKinds, IdOf("school"));
  add_tokens(kCounties, IdOf("county"));
  add_tokens(kCountries, IdOf("country"));
  add_tokens(kColors, IdOf("color"));
  add_tokens(kJobTitles, IdOf("job_title"));
  add_tokens(kDepartments, IdOf("department"));
  add_tokens(kStreetNames, IdOf("street_address"));
  add_tokens(kStreetSuffixFull, IdOf("street_address"));
  add_tokens(kStreetSuffixAbbrev, IdOf("street_address"));
  add_tokens(kEmailDomains, IdOf("email"));
  return vocab;
}

}  // namespace d3l::benchdata
