"""Tests for the jobs application domain (framework domain-independence),
run on the one ``WebBase`` (``tests/test_domains.py`` drives it through
cache, store and MQO)."""

import pytest

from repro import WebBase
from repro.domains.jobs import (
    CAREER_HOST,
    CITIES,
    JOBS,
    MONSTER_HOST,
    SURVEY_HOST,
    TITLES,
    JobsDataset,
    build_jobs_world,
)


@pytest.fixture(scope="module")
def jobs():
    return WebBase(JOBS.build_world(2026, 60), domain=JOBS)


class TestDataset:
    def test_deterministic(self):
        a = JobsDataset(seed=5, postings_per_host=20)
        b = JobsDataset(seed=5, postings_per_host=20)
        assert a.postings == b.postings
        assert a.medians == b.medians

    def test_above_median_ny_engineers_guaranteed(self):
        data = JobsDataset()
        median = next(
            m.median_salary
            for m in data.medians
            if m.title == "software engineer" and m.city == "new york"
        )
        for host in (MONSTER_HOST, CAREER_HOST):
            winners = [
                p
                for p in data.postings_for(host, "software engineer", "new york")
                if p.salary > median
            ]
            assert winners, host

    def test_median_coverage(self):
        data = JobsDataset()
        assert len(data.medians) == len(TITLES) * len(CITIES)


class TestMappingAndVps:
    def test_three_sites_mapped(self, jobs):
        assert set(jobs.vps.relation_names) == {"monster", "careerpath", "survey"}

    def test_vocabularies_preserved_at_vps(self, jobs):
        careerpath = jobs.vps.relation("careerpath")
        assert "position" in careerpath.schema and "pay" in careerpath.schema
        monster = jobs.vps.relation("monster")
        assert "title" in monster.schema and "salary" in monster.schema

    def test_handles(self, jobs):
        assert [sorted(h.mandatory) for h in jobs.vps.relation("monster").handles] == [
            ["title"]
        ]
        assert [
            sorted(h.mandatory) for h in jobs.vps.relation("careerpath").handles
        ] == [["position"]]

    def test_vps_matches_dataset(self, jobs):
        rows = jobs.vps.fetch("monster", {"title": "dba"})
        expected = jobs.world.dataset.postings_for(MONSTER_HOST, "dba")
        assert len(rows) == len(expected)

    def test_labeled_extraction_site(self, jobs):
        rows = jobs.vps.fetch("careerpath", {"position": "analyst"})
        expected = jobs.world.dataset.postings_for(CAREER_HOST, "analyst")
        assert len(rows) == len(expected)

    def test_survey_rows_per_city(self, jobs):
        rows = jobs.vps.fetch("survey", {"title": "sysadmin"})
        assert len(rows) == len(CITIES)


class TestLogicalAndUr:
    def test_postings_unions_both_boards(self, jobs):
        result = jobs.logical.fetch("postings", {"title": "web designer"})
        expected = len(
            jobs.world.dataset.postings_for(MONSTER_HOST, "web designer")
        ) + len(jobs.world.dataset.postings_for(CAREER_HOST, "web designer"))
        assert len(result) == expected

    def test_salary_typed(self, jobs):
        row = jobs.logical.fetch("postings", {"title": "dba"}).to_dicts()[0]
        assert isinstance(row["salary"], int)

    def test_flagship_query_matches_ground_truth(self, jobs):
        result = jobs.query(
            "SELECT title, city, company, salary, median_salary "
            "WHERE title = 'software engineer' AND city = 'new york' "
            "AND salary > median_salary"
        )
        data = jobs.world.dataset
        median = next(
            m.median_salary
            for m in data.medians
            if m.title == "software engineer" and m.city == "new york"
        )
        expected = {
            ("software engineer", "new york", p.company, p.salary, median)
            for host in (MONSTER_HOST, CAREER_HOST)
            for p in data.postings_for(host, "software engineer", "new york")
            if p.salary > median
        }
        assert set(result.rows) == expected

    def test_plan_is_single_object_join(self, jobs):
        plan = jobs.plan(
            "SELECT title, salary, median_salary WHERE title = 'dba'"
        )
        assert len(plan.feasible_objects) == 1
        assert set(plan.feasible_objects[0].relations) == {"postings", "market"}

    def test_concept_hierarchy(self, jobs):
        assert jobs.ur.resolve("Job") == ["title", "city"]
        assert jobs.ur.resolve("median_salary") == ["median_salary"]

    def test_world_is_isolated_from_cars(self):
        world = build_jobs_world()
        assert len(world.server.hosts) == 3
