"""Tests for the CLI and navigation-map rendering."""

import pytest

from repro.cli import main
from repro.navigation.visualize import to_dot, to_text


class TestVisualize:
    def test_dot_output(self, webbase):
        dot = to_dot(webbase.builders["www.newsday.com"].map)
        assert dot.startswith("digraph navmap {")
        assert dot.rstrip().endswith("}")
        assert 'label="link(Auto)"' in dot
        assert "peripheries=2" in dot  # data nodes doubly circled
        assert "style=dashed" in dot  # the row link

    def test_dot_highlight(self, webbase):
        dot = to_dot(webbase.builders["www.newsday.com"].map, highlight="n0")
        assert "lightyellow" in dot

    def test_text_tree(self, webbase):
        text = to_text(webbase.builders["www.newsday.com"].map)
        assert "--link(Auto)-->" in text
        assert "[data:newsday]" in text
        assert "(revisited)" in text  # the More loop

    def test_text_empty_map(self):
        from repro.navigation.navmap import NavigationMap

        assert to_text(NavigationMap("h.com")) == "(empty map)"


class TestCli:
    def test_query(self, capsys):
        code = main(["query", "SELECT make, model WHERE make = 'saab'", "--limit", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "saab" in out and "rows)" in out

    def test_plan(self, capsys):
        code = main(["plan", "SELECT make, price WHERE make = 'ford'"])
        out = capsys.readouterr().out
        assert code == 0
        assert "UR plan" in out

    def test_schema_layers(self, capsys):
        for layer, needle in [
            ("vps", "virtual physical schema"),
            ("logical", "logical schema"),
            ("ur", "UsedCarUR"),
        ]:
            assert main(["schema", layer]) == 0
            assert needle in capsys.readouterr().out

    def test_expression(self, capsys):
        assert main(["expression", "newsday"]) == 0
        out = capsys.readouterr().out
        assert "nav_entry" in out

    def test_expression_unknown(self, capsys):
        assert main(["expression", "nosuch"]) == 1
        assert "known:" in capsys.readouterr().out

    def test_map_text_and_dot(self, capsys):
        assert main(["map", "www.newsday.com"]) == 0
        assert "--link(Auto)-->" in capsys.readouterr().out
        assert main(["map", "www.newsday.com", "--dot"]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_map_unknown_host(self, capsys):
        assert main(["map", "nowhere.example"]) == 1

    def test_timing(self, capsys):
        assert main(["timing"]) == 0
        out = capsys.readouterr().out
        assert "www.newsday.com" in out and "elapsed" in out

    def test_baselines(self, capsys):
        assert main(["baselines"]) == 0
        out = capsys.readouterr().out
        assert "0% of the ads" in out
        assert "cannot express" in out

    def test_seed_flag_changes_world(self, capsys):
        main(["--seed", "7", "--ads-per-host", "30", "query",
              "SELECT make, model WHERE make = 'ford' AND model = 'escort'"])
        out = capsys.readouterr().out
        assert "ford" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_fabric_option_is_gone(self, capsys):
        """The threaded engine is the only engine: the switch that chose
        the other one is an unknown argument, not a silently ignored one."""
        with pytest.raises(SystemExit) as exit_info:
            main(["--fabric", "async", "query", "SELECT make WHERE make = 'saab'"])
        assert exit_info.value.code == 2
        assert "--fabric" not in capsys.readouterr().err  # usage lists no such option
