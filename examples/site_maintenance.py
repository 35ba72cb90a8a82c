"""Map maintenance: detecting and absorbing site changes.

Run:  python examples/site_maintenance.py

Recreates the paper's maintenance scenario ("in Kelley's Blue Book new
links with information about 1999 cars have been added ... we only had to
navigate through the modified pages"): the Newsday site changes in three
ways, and the maintenance checker classifies each change as automatically
absorbable or needing the designer.
"""

from repro.domains.cars.sessions import map_newsday
from repro.navigation.maintenance import apply_auto_changes, check_site
from repro.sites.world import build_world
from repro.web import html as H
from repro.web.browser import Browser


def main() -> None:
    world = build_world()
    print("Mapping www.newsday.com by example...")
    builder = map_newsday(world)

    print("\n--- check 1: nothing changed ---")
    report = check_site(builder.map, Browser(world.server))
    print(report.summary())

    print("\n--- the site changes: new make in the selection list,")
    print("--- a brand-new 'Max Price' form field, a new front-page link ---")
    site = world.server.site("www.newsday.com")

    def new_search_page(request):
        form = H.form(
            "/cgi-bin/nclassy",
            H.labeled("Make", H.select("make", ["ford", "jaguar", "delorean"])),
            H.labeled("Max Price", H.text_input("maxprice")),
            H.submit_button("Search"),
            method="post",
        )
        return H.page("Newsday Classifieds Search", form)

    def new_front_page(request):
        return H.page(
            "Newsday Classifieds",
            H.bullet_links(
                [
                    ("Auto", "/classified/cars"),
                    ("New Car Dealer", "/classified/dealers"),
                    ("Collectible Cars", "/classified/collectibles"),
                    ("Sport Utility", "/classified/suv"),
                    ("Boats", "/classified/boats"),
                ]
            ),
        )

    site.route("/classified/cars", new_search_page)
    site.route("/", new_front_page)

    print("\n--- check 2: the divergence report ---")
    report = check_site(builder.map, Browser(world.server))
    print(report.summary())

    print("\n--- absorbing the automatic changes ---")
    applied = apply_auto_changes(builder.map, report, Browser(world.server))
    print("applied %d automatic update(s)" % applied)
    search_node = next(
        n for n in builder.map.nodes.values() if n.signature.path == "/classified/cars"
    )
    form = next(iter(search_node.forms.values()))
    print("make domain is now:", form.widget_for_attr("make").domain)
    print(
        "\nThe new form attribute and the new link remain flagged for the"
        "\ndesigner — re-demonstrating that flow takes a minute of browsing."
    )


if __name__ == "__main__":
    main()
