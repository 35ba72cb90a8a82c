"""A second application domain: job listings.

Section 2: the external schema "targets specific application domains
(e.g., used car ads, computer equipment, etc.)" and Section 6 expects
webbases to be "designed for application domains (such as cars, jobs,
houses) by the experts in those domains".  This module is that exercise
for *jobs*: everything a domain expert writes down, gathered into the
:data:`JOBS` domain value and run by ``WebBase(world, config, JOBS)`` —
nothing here is car-specific, and nothing here assembles a stack, which
is the point:

* a deterministic dataset of postings and salary-survey medians;
* two job boards with different vocabularies (MonsterBoard's
  title/city table vs CareerPath's position/location blocks) and a
  salary-survey site, all simulated;
* designer sessions mapping each site by example;
* a logical schema (``postings`` = union of the boards; ``survey``);
* a JobsUR with its own concept hierarchy and compatibility rules.

The flagship query: *jobs in New York paying above the market median* —
a cross-site join a 1999 job hunter could never pose to either board.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.domains import Domain
from repro.domains.designer import follow_more, mark_block, mark_table, open_session
from repro.logical.schema import LogicalSchema
from repro.logical.standardize import to_usd
from repro.navigation.builder import MapBuilder
from repro.relational.algebra import Catalog, Derive, Project, Union, rename
from repro.relational.algebra import Base as BaseRel
from repro.ur.compat import allows
from repro.ur.concepts import Concept
from repro.web import html as H
from repro.web.http import Request, Url
from repro.web.server import Site, WebServer, World

TITLES = ["software engineer", "dba", "web designer", "sysadmin", "analyst"]
CITIES = ["new york", "boston", "chicago", "austin", "seattle"]
COMPANIES = [
    "Initech",
    "Globex",
    "Hooli",
    "Vandelay",
    "Wayne Tech",
    "Acme Data",
    "Pied Piper",
    "Umbrella IT",
]

MONSTER_HOST = "jobs.monsterboard.com"
CAREER_HOST = "www.careerpath.com"
SURVEY_HOST = "www.salarysurvey.org"


@dataclass(frozen=True)
class Posting:
    posting_id: int
    host: str
    title: str
    city: str
    company: str
    salary: int
    contact: str


@dataclass(frozen=True)
class Median:
    title: str
    city: str
    median_salary: int


class JobsDataset:
    """Postings for two boards plus a salary survey, seeded."""

    def __init__(self, seed: int = 2026, postings_per_host: int = 60) -> None:
        base = {
            "software engineer": 72000,
            "dba": 68000,
            "web designer": 52000,
            "sysadmin": 58000,
            "analyst": 61000,
        }
        city_factor = {
            "new york": 1.25,
            "boston": 1.15,
            "chicago": 1.05,
            "austin": 0.95,
            "seattle": 1.10,
        }
        self.medians = [
            Median(title, city, int(round(base[title] * city_factor[city], -2)))
            for title in TITLES
            for city in CITIES
        ]
        median_index = {(m.title, m.city): m.median_salary for m in self.medians}
        self.postings: list[Posting] = []
        posting_id = 5000
        for host in (MONSTER_HOST, CAREER_HOST):
            rng = random.Random("%s:jobs:%s" % (seed, host))
            for i in range(postings_per_host):
                if i < 4:
                    # Guarantee above-median NY software jobs at each board.
                    title, city = "software engineer", "new york"
                    salary = int(median_index[(title, city)] * rng.uniform(1.05, 1.25))
                else:
                    title = rng.choice(TITLES)
                    city = rng.choice(CITIES)
                    salary = int(median_index[(title, city)] * rng.uniform(0.8, 1.2))
                self.postings.append(
                    Posting(
                        posting_id=posting_id,
                        host=host,
                        title=title,
                        city=city,
                        company=rng.choice(COMPANIES),
                        salary=int(round(salary, -2)),
                        contact="hr%d@%s.example"
                        % (posting_id, rng.choice(COMPANIES).lower().replace(" ", "")),
                    )
                )
                posting_id += 1

    def postings_for(
        self, host: str, title: str | None = None, city: str | None = None
    ) -> list[Posting]:
        return [
            p
            for p in self.postings
            if p.host == host
            and (title is None or p.title == title)
            and (city is None or p.city == city)
        ]

    def medians_for(self, title: str) -> list[Median]:
        return [m for m in self.medians if m.title == title]


# -- the simulated job sites -----------------------------------------------------------


class MonsterBoardSite(Site):
    """Table results; title mandatory (select), city optional (select)."""

    def __init__(self, dataset: JobsDataset) -> None:
        super().__init__(MONSTER_HOST)
        self.dataset = dataset
        self.route("/", self.entry)
        self.route("/search", self.search)
        self.route("/cgi-bin/jobs", self.results)

    def entry(self, request: Request) -> H.Element:
        return H.page("MonsterBoard", H.bullet_links([("Find Jobs", "/search")]))

    def search(self, request: Request) -> H.Element:
        form = H.form(
            "/cgi-bin/jobs",
            H.labeled("Title", H.select("title", TITLES)),
            H.labeled("City", H.select("city", [""] + CITIES)),
            H.submit_button("Search"),
            method="get",
        )
        return H.page("MonsterBoard Search", form)

    def results(self, request: Request) -> H.Element:
        params = request.params
        postings = self.dataset.postings_for(
            MONSTER_HOST, params.get("title") or None, params.get("city") or None
        )
        start = int(params.get("start", "0") or 0)
        chunk = postings[start : start + 10]
        rows = [
            [p.title, p.city, p.company, "${:,}".format(p.salary), p.contact]
            for p in chunk
        ]
        body = [H.table(["Title", "City", "Company", "Salary", "Contact"], rows)]
        if start + 10 < len(postings):
            next_params = dict(params)
            next_params["start"] = str(start + 10)
            more = Url(MONSTER_HOST, "/cgi-bin/jobs").with_params(next_params)
            body.append(H.el("p", H.link(str(more), "More")))
        return H.page("MonsterBoard Listings", *body)


class CareerPathSite(Site):
    """Different vocabulary (position/location) and labeled-block layout."""

    def __init__(self, dataset: JobsDataset) -> None:
        super().__init__(CAREER_HOST)
        self.dataset = dataset
        self.route("/", self.entry)
        self.route("/listings", self.search)
        self.route("/cgi-bin/match", self.results)

    def entry(self, request: Request) -> H.Element:
        return H.page("CareerPath", H.bullet_links([("Job Listings", "/listings")]))

    def search(self, request: Request) -> H.Element:
        form = H.form(
            "/cgi-bin/match",
            H.labeled("Position", H.select("position", TITLES)),
            H.labeled("Location", H.select("location", [""] + CITIES)),
            H.submit_button("Match"),
            method="get",
        )
        return H.page("CareerPath Listings", form)

    def results(self, request: Request) -> H.Element:
        params = request.params
        postings = self.dataset.postings_for(
            CAREER_HOST, params.get("position") or None, params.get("location") or None
        )
        start = int(params.get("start", "0") or 0)
        chunk = postings[start : start + 12]
        blocks = []
        for p in chunk:
            blocks.append(
                H.el(
                    "dl",
                    H.el("dt", "Position"),
                    H.el("dd", p.title),
                    H.el("dt", "Location"),
                    H.el("dd", p.city),
                    H.el("dt", "Employer"),
                    H.el("dd", p.company),
                    H.el("dt", "Pay"),
                    H.el("dd", "${:,}".format(p.salary)),
                    H.el("dt", "Apply"),
                    H.el("dd", p.contact),
                )
            )
        if start + 12 < len(postings):
            next_params = dict(params)
            next_params["start"] = str(start + 12)
            more = Url(CAREER_HOST, "/cgi-bin/match").with_params(next_params)
            blocks.append(H.el("p", H.link(str(more), "More")))
        return H.page("CareerPath Matches", *blocks)


class SalarySurveySite(Site):
    """Median salaries by title (one row per city)."""

    def __init__(self, dataset: JobsDataset) -> None:
        super().__init__(SURVEY_HOST)
        self.dataset = dataset
        self.route("/", self.entry)
        self.route("/survey", self.search)
        self.route("/cgi-bin/median", self.results)

    def entry(self, request: Request) -> H.Element:
        return H.page(
            "Salary Survey", H.bullet_links([("Salary Data", "/survey")])
        )

    def search(self, request: Request) -> H.Element:
        form = H.form(
            "/cgi-bin/median",
            H.labeled("Title", H.select("title", TITLES)),
            H.submit_button("Look Up"),
            method="get",
        )
        return H.page("Salary Survey Lookup", form)

    def results(self, request: Request) -> H.Element:
        title = request.params.get("title", "")
        rows = [
            [m.title, m.city, "${:,}".format(m.median_salary)]
            for m in self.dataset.medians_for(title)
        ]
        if not rows:
            return H.page("Survey", H.el("p", "No data for %s." % title))
        return H.page(
            "Median Salaries", H.table(["Title", "City", "Median Salary"], rows)
        )


# -- the jobs domain: world, sessions, views, universal relation ------------------


def build_jobs_world(seed: int = 2026, postings_per_host: int = 60) -> World:
    dataset = JobsDataset(seed=seed, postings_per_host=postings_per_host)
    server = WebServer()
    server.add_site(MonsterBoardSite(dataset))
    server.add_site(CareerPathSite(dataset))
    server.add_site(SalarySurveySite(dataset))
    return World(server=server, dataset=dataset)


def _map_monster(world: World) -> MapBuilder:
    browser, builder = open_session(world, MONSTER_HOST)
    browser.follow_named("Find Jobs")
    page = browser.submit_by_attribute({"title": "software engineer"})
    columns = ["title", "city", "company", "salary", "contact"]
    mark_table(builder, page, "monster", columns)
    follow_more(browser)
    return builder


def _map_careerpath(world: World) -> MapBuilder:
    browser, builder = open_session(world, CAREER_HOST)
    browser.follow_named("Job Listings")
    page = browser.submit_by_attribute({"position": "software engineer"})
    labels = ["position", "location", "employer", "pay", "apply"]
    mark_block(builder, page, "careerpath", labels)
    follow_more(browser)
    return builder


def _map_survey(world: World) -> MapBuilder:
    browser, builder = open_session(world, SURVEY_HOST)
    browser.follow_named("Salary Data")
    page = browser.submit_by_attribute({"title": "dba"})
    mark_table(builder, page, "survey", ["title", "city", "median_salary"])
    return builder


POSTING_SCHEMA = ("title", "city", "company", "salary", "contact")


def jobs_logical_schema(vps: Catalog) -> LogicalSchema:
    logical = LogicalSchema(vps)
    monster = Project(
        Derive(BaseRel("monster"), "salary", lambda r: to_usd(r.get("salary"))),
        POSTING_SCHEMA,
    )
    career = Project(
        Derive(
            rename(
                BaseRel("careerpath"),
                {
                    "position": "title",
                    "location": "city",
                    "employer": "company",
                    "pay": "salary",
                    "apply": "contact",
                },
            ),
            "salary",
            lambda r: to_usd(r.get("salary")),
        ),
        POSTING_SCHEMA,
    )
    logical.define("postings", Union(monster, career))
    logical.define(
        "market",
        Derive(
            BaseRel("survey"),
            "median_salary",
            lambda r: to_usd(r.get("median_salary")),
        ),
    )
    return logical


def jobs_hierarchy() -> Concept:
    root = Concept("JobsUR")
    root.add(
        Concept("Job").add("title", "city"),
        Concept("Posting").add("company", "salary", "contact"),
        Concept("Market").add("median_salary"),
    )
    root.validate()
    return root


JOBS = Domain(
    build_world=build_jobs_world,
    sessions={
        MONSTER_HOST: _map_monster,
        CAREER_HOST: _map_careerpath,
        SURVEY_HOST: _map_survey,
    },
    logical_schema=jobs_logical_schema,
    hierarchy=jobs_hierarchy,
    rules=tuple(allows("postings", "market")),
    relations=("postings", "market"),
)
