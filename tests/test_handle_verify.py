"""Tests for the handle-agreement verifier."""

from repro.vps.verify import verify_handle_agreement


class TestAgreementVerifier:
    def test_usedcarmart_handles_agree(self, webbase):
        relation = webbase.vps.relation("usedcarmart")
        samples = [
            {"make": "ford", "zip": "10001"},
            {"make": "jaguar", "zip": "10025"},
            {"make": "honda", "zip": "94110"},
            {"make": "saab"},  # satisfies only one handle: skipped
        ]
        report = verify_handle_agreement(relation, samples)
        assert report.agrees, report.summary()
        assert report.samples_checked == 3

    def test_single_handle_relations_trivially_agree(self, webbase):
        relation = webbase.vps.relation("newsday")
        report = verify_handle_agreement(relation, [{"make": "ford"}])
        assert report.agrees
        assert report.samples_checked == 0

    def test_disagreement_detected_on_broken_site(self, fresh_world):
        """Sabotage: the by-zip form quietly drops one listing."""
        from repro.domains.cars.sessions import map_usedcarmart
        from repro.navigation.compiler import compile_map
        from repro.navigation.executor import NavigationExecutor
        from repro.vps.schema import VpsSchema
        from repro.sites.usedcarmart import UsedCarMartSite, HOST
        from repro.web import html as H
        from repro.web.http import Url

        builder = map_usedcarmart(fresh_world)
        site = fresh_world.server.site(HOST)
        original = site._routes["/cgi-bin/mart"]  # noqa: SLF001 - test injection

        def biased(request):
            # Zip-seeded searches lose their first result (a stale index).
            element = original(request)
            if "zip" in request.params and "make" not in request.params:
                table = element.children[1].children[1 + 1]  # body > table
                rows = [c for c in table.children if getattr(c, "tag", "") == "tr"]
                if len(rows) > 2:
                    table.children.remove(rows[1])
            return element

        site.route("/cgi-bin/mart", biased)
        executor = NavigationExecutor(fresh_world.server)
        vps = VpsSchema(executor)
        vps.add_compiled_site(compile_map(builder.map))
        relation = vps.relation("usedcarmart")
        samples = [
            {"make": make, "zip": zipcode}
            for make in ("ford", "jaguar", "honda")
            for zipcode in ("10001", "10025", "11201")
        ]
        report = verify_handle_agreement(relation, samples)
        assert not report.agrees
        assert report.disagreements
        assert "DISAGREE" in report.summary()
