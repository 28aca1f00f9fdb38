"""Regenerate frozen test fixtures.

Run from the tests/ directory:

    python3 make_fixtures.py

Outputs:
  data/readability_corpus.jsonl  50 documents with oracle-frozen scores
  data/corpus_50.jsonl           50 synthetic corpus sections for dry runs
  data/golden_manifest.json      manifest of one simulated pipeline run

The readability oracle (readability_oracle.py) scores every document
using the hand-curated syllable lexicon in data/syllable_lexicon.txt.
Missing lexicon entries abort the build with the full word list so the
lexicon can be extended by hand; counts are assigned from dictionary
syllabification, never from the production heuristic.

The golden manifest is a determinism snapshot, not an oracle: its
outcome counts are asserted against values derived by hand from the
simulator's section-id conventions before the file is written.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import readability_oracle as oracle

DATA_DIR = Path(__file__).parent / "data"

# 50 short documents spanning registers: conversational anecdotes,
# local-news items, expository science, formal prose, and a few
# punctuation stress cases (abbreviations, decimals, quotes).
READABILITY_DOCS: list[tuple[str, str]] = [
    ("easy-lake", "The sun was warm that day. We took the old path down to the lake. My brother carried the small boat on his back. The water looked calm and clear. We set the boat down and climbed in. A bird called from the far shore. I held the rope while he rowed. The trip took less than an hour. We caught three fish before noon. Lunch was bread and cheese on the grass. The wind picked up late in the day. We rowed back before the rain came. Mom met us at the door with dry towels. It was a good day from start to end."),
    ("easy-soup", "My gran makes the best soup in town. She starts with a big pot of cold water. Then she adds bones, salt, and two bay leaves. The pot sits on low heat for hours. The whole house smells rich and warm. I like to sit in her kitchen and read while it cooks. She tells me the same jokes each time. I laugh each time too. When the soup is done, she fills two blue bowls. We eat by the window and watch the street. People wave at her as they pass. Everyone knows her name on our block."),
    ("easy-bike", "Dad taught me to ride a bike when I was six. He held the seat and ran beside me. I was scared of the big hill near our house. He said fear is fine, but you still pedal. One day he let go and did not tell me. I rode the whole street on my own. When I found out, I fell off from shock. We both laughed for a long time. My knees were green from the grass. That night I rode past the hill twice more. I still think of that day when work gets hard. You just keep going, and the wheel stays up."),
    ("easy-bread", "There is a small shop at the end of our street that sells warm rolls. The owner opens the door at six each morning. You can smell the bread from half a block away. Most days there is a line before the lights come on. She knows each face and each order by heart. My order is plain toast with jam and a cup of tea. On cold days she adds a free scone and winks. No one ever skips the tip jar. The shop has six seats and one long bench. Strangers end up talking like old friends. That is what good bread can do for a town."),
    ("easy-dog", "Our dog Max hates the mailman but loves the trash truck. Every time the truck turns the corner, he runs to the fence and wags his tail. The driver honks twice just for him. Max barks back in what sounds like a greeting. This has gone on for four years now. The mailman gets no such welcome. He gets a low growl and a hard stare. We have tried treats, toys, and kind words. Nothing works. The vet says some dogs just pick sides. Max sleeps by the window where he can watch the street. He takes his job very seriously, whatever that job is."),
    ("easy-fair", "Rain came hard on the night of the fair. The field turned to mud in an hour. But no one went home. The band played under a blue tarp. Kids ran in the wet grass with bare feet. A man sold hot corn from a cart by the gate. My shoes were ruined, and I did not care. We danced until the lights went out. Then we walked home in the dark, loud and happy. My socks dried on the stove that night. The mud stains never washed out of that dress. I keep it in the back of the closet. Some things are worth more stained."),
    ("easy-stairs", "My little sister counts stairs out loud. Every set of stairs, every time. The school has two flights, twelve steps each. The library has a grand staircase with twenty. She knows them all by heart. Mom thinks she will grow out of it. I hope she never does. The world needs people who notice small things. Last week the city fixed a broken step near the park. My sister was the one who told them it was loose. The man from the city shook her hand. She counted his steps as he walked away. Eleven, she said, and smiled all the way home."),
    ("easy-clock", "The old clock in the hall stopped at noon on a Tuesday. Grandpa wound it every week for fifty years. After he died, no one touched it for a month. Then my aunt took the key from the shelf and gave it a turn. The chime filled the whole house. We all stood still and listened. It felt like he was back in the room. Now we take turns winding it. The job passes from hand to hand each week. The clock has not stopped since. Some machines hold more than gears inside them. Ours holds a promise we plan to keep."),
    ("easy-cat", "A stray cat moved into our garage last fall. She was thin and quick and did not trust us. We left food by the door each night. After two weeks she let us see her eat. After a month she slept on the mat. By winter she owned the whole house. She has a chair no one else may use. The dog knows this and keeps his distance. We named her Duchess because of how she walks. Strays make the best pets, my dad says. They know what they left behind. Every bowl of food still gets a slow blink of thanks."),
    ("easy-pancakes", "Saturday is pancake day at our house. Dad mixes the batter while the pan heats up. The first one always burns. He calls it the cook's tax and eats it anyway. My job is to watch the bubbles. When they pop and stay open, it is time to flip. We stack them high and pour real syrup. Mom gets the top one because she sleeps in. The kitchen ends up a mess of flour and smiles. Cleanup takes twice as long as breakfast. No one minds at all. Some weeks this meal is the best hour we share."),
    ("news-road", "The city council voted on Monday to repair the harbor road before winter. The project will cost about two million dollars and take ten weeks. Local drivers have filed complaints about the potholes for years. One resident told the council that her van lost a wheel in March. The mayor called the repair long overdue and promised weekly updates. Crews will begin at the north end and work south. The road will stay open in one lane during the day. Night work is banned near the houses on Bay Street. Shop owners worry about lost business, but most support the plan. The council will review progress at its next meeting."),
    ("news-museum", "The museum opened a new wing this spring after three years of construction. The space holds the town's maritime collection, from whale bones to ship models. A glass wall faces the bay, so visitors can see real boats while they look at old ones. The star piece is a lantern from a lighthouse that stood here in 1850. School groups arrive most mornings and fill the halls with noise. The director says attendance has doubled since the opening. Tickets cost nine dollars, and children enter free on Sundays. The gift shop sells postcards, glass beads, and small brass bells. Plans for a second phase are already on the table."),
    ("story-diner", "My first job was washing dishes at a diner on Route 9. The shift started at four and ended near midnight. Steam soaked my shirt before the dinner rush even began. The cook, a quiet man named Earl, taught me to stack plates so they dried faster. Waitresses slid tips across the counter when the night went well. I learned more about people in that kitchen than in any classroom. Regulars had their own mugs on a wooden rack. One trucker ordered the same meal for eleven years. When the diner closed, half the town came to the last breakfast. Earl hugged every single person at the door."),
    ("news-storm", "The storm knocked out power across the valley on Friday night. Line crews worked through the weekend to restore service. A tall pine fell across the main feed near the substation. Neighbors shared generators and froze milk in coolers full of snow. The fire hall opened as a warming center with cots and hot coffee. By Sunday evening most homes had light again. The hardware store sold out of lamp oil in two hours. One farmer lost a barn roof, but his animals were safe. The town has asked the county to trim trees along the lines. Everyone agrees the next storm will not wait for paperwork."),
    ("story-runner", "Elena started running after her doctor warned her about her heart. The first week she could not finish a lap around the block. She kept a small notebook and wrote down every walk and run. By summer she finished a full mile without stopping. Her daughter printed a chart and taped it to the fridge. Each new line on that chart felt like a medal. In October she entered a five kilometer race downtown. She crossed the line in last place, arms raised high. The crowd near the finish cheered louder for her than for the winner. Her doctor keeps a photo from that day on his office wall."),
    ("story-mill", "The mill on Carver Creek ground corn for a hundred years before it burned in 1921. Local folks rebuilt it twice, first after a flood and then after the fire. The third building still stands, though the wheel has not turned since the war. A retired teacher named Mrs. Hale leads tours on summer weekends. She shows visitors the worn stones and the miller's ledger from 1885. Children like the trapdoor where sacks once dropped to waiting wagons. The county placed a bronze marker by the door last spring. Donations pay for the roof, one shingle at a time. Old buildings survive, she says, because somebody refuses to forget them."),
    ("story-bikes", "Marcus fixes bikes in his garage every Sunday morning. Kids from the whole block bring him flat tires and bent rims. He charges nothing but asks each rider to help with one repair. That way, he says, the skill spreads around the neighborhood. His toolbox belonged to his uncle, who fixed tractors in Kansas. Some wrenches are older than the kids who borrow them. Last month a girl named Priya rebuilt a whole gear set herself. Marcus watched with his arms crossed, grinning the entire time. She rides past his house every day now and rings her bell twice. He calls that sound his favorite kind of thanks."),
    ("story-bakery", "The bakery on Fifth Street wins the county fair every single year. The secret, according to the owner, is patience and cold butter. She starts the dough the night before and lets it rest till dawn. Layers matter more than sugar, she told the judges once. Her rivals roll their eyes but line up for samples anyway. This year she entered a plum tart with almond cream. The head judge took one bite and closed his eyes for a moment. The blue ribbon now hangs beside eleven others on the shop wall. Reporters ask for the recipe every August. She smiles and offers them coffee instead."),
    ("story-valley", "Winter came early to the high valley this year. The first snow fell while the aspens still held gold leaves. Ranchers moved their herds down from the summer range in a hurry. Trucks lined the narrow road for most of a morning. At the feed store, talk turned to hay prices and closed passes. The school canceled classes twice before December even started. Kids built snow forts taller than the fence posts. The plow driver waved at every mailbox like on parade. Old timers say a hard start means a soft spring. Nobody argues with them out loud, just in private."),
    ("story-ferry", "The ferry crosses the strait six times a day in good weather. Captain Reyes has held the wheel for nineteen years. She reads the water the way others read headlines. Tourists crowd the rail to watch for seals near the point. Locals stay inside with coffee and crossword puzzles. The crossing takes forty minutes, dock to dock. In fog, the horn sounds every two minutes, low and steady. Once a year the crew hosts a pancake breakfast on board. Proceeds buy life vests for the sailing club at the school. The boat is old, the paint is tired, and nobody wants a new one."),
    ("exp-honey", "Honey never spoils if it is stored in a sealed container. Archaeologists have found jars in ancient tombs with contents still safe to eat. The reason lies in its chemistry. Honey holds very little water, and its acidity blocks the growth of bacteria. Bees add an enzyme that slowly releases a mild antiseptic as well. Together these traits create a food that resists decay for centuries. There is one caution worth noting. Once honey absorbs moisture from the air, fermentation can begin. That is why the jar lid matters more than the pantry shelf. A tight seal preserves what the bees already perfected."),
    ("exp-glass", "Glass is neither a true solid nor a liquid in the everyday sense. Its atoms freeze in place without forming the orderly lattice of a crystal. Scientists call this state amorphous, meaning without shape. When sand melts in a furnace, the molecules lose their pattern. Rapid cooling then traps them before they can reorganize. The result bends light smoothly, which is why windows and lenses work. Old cathedral panes are sometimes thicker at the bottom, but not because glass flows. They were simply made unevenly and installed heavy side down. The myth survives because it sounds poetic. Chemistry, as usual, is stranger than the story."),
    ("exp-octopus", "The octopus has three hearts and blue blood. Two hearts pump blood through the gills, while the third serves the body. The blue color comes from a copper compound that carries oxygen. In cold, low oxygen water, copper works better than iron. Evolution tuned this animal for its deep habitat. There is a strange cost, however. The main heart stops whenever the octopus swims. That is why it prefers to crawl along the seafloor. Swimming exhausts it quickly, so speed is saved for escape. Biology often trades comfort for survival, and this creature signed that bargain long ago."),
    ("exp-aircraft", "Commercial aircraft cruise near the lower edge of the stratosphere for good reasons. The thin air cuts drag, which trims costs on long routes. Weather mostly lives below, so flights escape the worst turbulence. Engines, however, lose thrust as the air thins, so designers balance height against power. A typical cruising altitude sits between ten and twelve kilometers. Cabin crews pressurize the interior to match a mountain town, not sea level. Passengers rarely notice unless their ears pop on descent. Pilots also value the quiet traffic lanes assigned up high. Every altitude is a compromise among physics, comfort, and cost. The window seat simply gets the best of the deal."),
    ("exp-library", "Public libraries began as private collections owned by the wealthy. Benjamin Franklin helped change that in 1731 with a lending society in Philadelphia. Members paid dues, bought books together, and shared them by rule. The idea spread because it solved a real problem cheaply. A century later, Andrew Carnegie funded more than two thousand library buildings. Towns had to promise free service and public money for upkeep. That bargain seeded the system Americans use today. Modern branches lend far more than books, from tools to telescopes. The core idea has not moved an inch in three hundred years. Knowledge shared grows; knowledge hoarded shrinks."),
    ("exp-soreness", "Muscle soreness after exercise peaks about two days later, not immediately. Researchers call the pattern delayed onset muscle soreness. Tiny tears in the fibers trigger inflammation, which builds slowly. The swelling, not the original damage, produces most of the ache. Light movement speeds recovery better than complete rest. Blood flow carries repair proteins to the tissue and clears waste. Gentle stretching helps, though the evidence for foam rollers is mixed. Soreness is also a poor measure of workout quality. Muscles adapt quickly and complain less on the second visit. The calendar, not the mirror, tracks real progress."),
    ("exp-concrete", "The Roman concrete in some harbors has outlasted its modern counterpart. Engineers long wondered why ancient piers survive pounding surf for two thousand years. The answer hides in the recipe. Builders mixed volcanic ash with lime and seawater. Waves then triggered a slow reaction that grew new minerals inside the cracks. In effect, the material heals itself under attack. Modern concrete resists that chemistry because it relies on different binders. Labs now test ash blends that copy the old formula. Bridges and sea walls could one day repair their own wounds. Sometimes progress means reading what the ancients already wrote."),
    ("exp-violin", "A violin holds about four hundred parts, most of them invisible from the outside. The hidden sound post carries vibration from the top plate to the back. Move it one millimeter and the voice of the instrument changes. Makers still set it by hand with a long steel tool. The varnish matters too, though builders argue about how much. Old Italian workshops guarded their formulas like state secrets. Modern scanners reveal wood density choices we can now copy. Yet blind tests show new violins often beat famous antiques. The ear, it turns out, honors craft over legend. Players still queue for the old names anyway."),
    ("exp-bridge", "Steel bridges breathe with the weather. On a hot afternoon, the Golden Gate can stand taller and sag lower by more than a meter. Engineers plan for this motion from the first sketch. Expansion joints let the deck slide without cracking the roadbed. Bearings under the towers absorb the slow daily push and pull. Paint crews work year round, partly to fight rust and partly to inspect every plate. The bridge is never finished, only maintained. Designers today run computer models of heat, wind, and load together. The old builders used tables, judgment, and wide margins. Both methods respect the same stubborn truth. Metal moves, and the craft lies in letting it."),
    ("exp-maps", "Maps lie a little by necessity. A globe cannot flatten onto paper without stretching somewhere. The familiar Mercator projection keeps compass bearings straight, which sailors loved. The price is that Greenland looks as large as Africa, though it is fourteen times smaller. Other projections preserve area but bend the shapes instead. Cartographers choose their distortion the way tailors choose their cuts. Digital maps dodge some of this by redrawing as you zoom. Still, every flat map makes a quiet argument about what matters. When you read one, ask what it protects and what it sacrifices. The answer reveals the mapmaker's priorities."),
    ("formal-collab", "Administrative overhead frequently determines whether a scientific collaboration succeeds or collapses. Investigators routinely underestimate the coordination required to reconcile institutional policies, data governance requirements, and publication timelines. International partnerships multiply these complications considerably. A representative agreement may circulate among legal departments for months before a single experiment begins. Funding agencies increasingly request management plans alongside technical proposals. Experienced coordinators recommend establishing authorship expectations and data ownership rules immediately. Ambiguity deferred becomes conflict guaranteed. The productive collaborations are rarely those with the most brilliant participants. They are the ones whose members resolved the boring questions early."),
    ("formal-earnings", "Quarterly earnings reports reward precision and punish storytelling. Analysts compare revenue, margins, and guidance against their models within seconds of release. A company that beats expectations but lowers its forecast often watches its shares fall anyway. Markets price the future, not the quarter just ended. Executives therefore rehearse every sentence of the conference call. A single adjective about demand can move billions in valuation. Skilled investors read the footnotes first, where accounting choices hide. Inventory growth outpacing sales, for example, whispers of trouble ahead. The headline number is theater. The balance sheet is testimony."),
    ("formal-crypto", "Encryption protects information by transforming readable data into apparent noise. The transformation depends on a key, a large number whose secrecy carries the entire burden. Modern ciphers publish their algorithms openly and invite attack. Security through obscurity failed so often that engineers abandoned it as doctrine. What survives scrutiny is mathematics, not mystery. Doubling a key's length squares the work an attacker faces, which is why key sizes creep upward each decade. Quantum computers threaten certain schemes, and researchers are standardizing replacements now. The race is quiet but permanent. Every locked message is a bet that arithmetic stays hard."),
    ("formal-review", "Peer review operates less like a court and more like a conversation among skeptics. Editors solicit two or three referees whose expertise overlaps the manuscript. Reviewers probe methods, statistics, and the gap between evidence and conclusion. Their reports recommend acceptance, revision, or rejection, but editors decide. The system filters obvious error better than subtle fraud. Replication, not the referee's verdict, eventually exposes fabricated results. Critics note that reviewers work unpaid and anonymously, with predictable delays. Alternatives like open review and preprint commentary are gaining ground. No variant eliminates judgment. Science advances by argument, and peer review merely formalizes the quarrel."),
    ("formal-supply", "Supply chains optimize for cost in calm years and for survival in turbulent ones. A factory that single sources a component saves pennies per unit until a flood closes one supplier. Resilient firms map their dependencies two or three tiers deep. They discover, often with surprise, that rival suppliers share the same upstream foundry. Redundancy costs money every quarter and proves its worth once a decade. Executives describe the tension as insurance against embarrassment. Inventory buffers, dual sourcing, and regional warehouses all trade efficiency for resilience. The pandemic converted skeptics faster than any consultant. Boards now ask where the single points of failure hide."),
    ("formal-soil", "Soil is an ecosystem, not a substrate. A single gram contains more microbes than there are people on Earth. Fungal networks ferry nutrients between plants that never touch. Farmers who plow less disturb these webs less, and yields often hold steady. Cover crops feed the underground economy through winter. Synthetic fertilizer boosts harvests but can starve the microbial trade that builds structure. Degraded fields shed rain instead of drinking it. Restoration begins with organic matter and patience, measured in seasons rather than quarters. Agronomists now speak of soil health the way doctors speak of gut health. The metaphor is apt. Both systems digest, defend, and remember."),
    ("formal-compilers", "Compilers translate intention into instruction, and the translation is rarely literal. An optimizing compiler may reorder arithmetic, unroll loops, or delete code it proves useless. The programmer's text is a specification, not a script. Modern processors complicate matters further by executing instructions speculatively. Performance therefore emerges from a negotiation between software and silicon. Engineers who profile before optimizing usually discover their intuition was wrong. The bottleneck hides in memory access patterns far more often than in arithmetic. Cache friendly layouts routinely beat clever algorithms. The machine rewards humility. Measure first, then argue with the evidence, never with the hardware."),
    ("formal-statistics", "Statistical significance answers a narrow question: how surprising is this data if nothing interesting is happening? It does not measure importance, size, or truth. A trivial effect becomes significant with enough samples, and a large one can hide in a small study. Confidence intervals communicate more, yet journals historically worshiped the threshold. The replication crisis pushed many fields toward preregistration and open data. Analysts now report effect sizes alongside probabilities. Some journals ban the word significant outright. The reform is less about mathematics than about incentives. Researchers optimize what reviewers reward. Change the reward, and the statistics improve themselves."),
    ("tiny-cat", "I like my cat. My cat likes me. We sit by the fire at night. She purrs and I read. The rain taps on the glass. The room is warm. Her fur is soft and gray. She chases a red dot up the wall. Then she naps on my lap. I do not move. I just smile and stay. A good cat is a good friend. We both like it that way."),
    ("tiny-farm", "Come see the farm. We have ten hens and one old cow. The hens lay eggs each day. The cow gives milk each morn. A red barn sits on the hill. Hay fills the loft to the top. You can feed the goats by hand. They tug at your coat and bleat. The pond has three fat ducks. At dusk we shut each gate. The stars come out so clear here. You will not want to go home."),
    ("tiny-snow", "The snow fell all night. By dawn the yard was white and still. We got our sleds from the shed. The hill was fast and smooth. I went down first and hit a bump. Up I flew, then down in a drift. My boots filled with snow. We raced till noon and then had soup. Hot soup on a cold day is the best. My hands were red for an hour. We hung our wet socks by the stove. Then we slept like two old dogs."),
    ("tiny-kite", "Jack has a small red kite. He flies it at the park when the wind is up. The kite dips and spins and climbs. One day the string broke. The kite flew off past the trees. Jack did not cry. He ran the whole way home. He drew a plan for a new kite that same night. His new kite is blue with one long tail. It flies twice as high as the old one. Jack says lost things make room for new things. He is six, and he is right."),
    ("punct-clinic", "Dr. Chen runs the clinic on Main St. near the bank. Her office opens at 8 a.m. sharp. Mr. Ortega arrives first most days, with his old terrier. The dog waits by the door, calm as stone. Dr. Chen treats roughly thirty patients a day. Mrs. Lee brings cookies every Friday without fail. The staff hides them from Dr. Chen until lunch. She pretends not to know, which fools no one at all. A sign by the desk says kindness is free. Take some, it says, and leave some for the next person. Most people do exactly that."),
    ("punct-recipe", "The recipe calls for 2.5 cups of flour and a pinch of salt. Grandma doubles it every Thanksgiving without asking anyone. The oven runs hot, so she lowers the dial a little. Each batch takes 45 minutes, give or take. She tests the center with a straw from the broom, an old trick. The first loaf vanished in ten minutes flat last year. Cousins circled the kitchen like hungry gulls. She hides a second loaf in the laundry room now. Nobody has found it yet, or so she believes. Uncle Ray knows, but he trades silence for a corner slice."),
    ("punct-spider", "Have you ever watched a spider build a web? Start to finish, it takes about an hour. First she strings a bridge line between two branches. Then she drops a loose thread and pulls it tight to make a frame. Spokes come next, laid like the ribs of a wheel. The spiral starts wide and tightens toward the center. Her back legs measure each gap by touch alone. She cannot see her own work! The whole design lives in her body, not her eyes. By morning the web glitters with dew. By night it is torn, and she eats the silk. Tomorrow she will spend another hour and build it all again."),
    ("punct-quotes", "My grandmother kept a note above her stove. It said, \"Taste before you salt.\" She meant the soup, but not only the soup. When I rushed to judge a neighbor, she tapped the card twice. When I raced through homework, she tapped it again. The rule worked on nearly everything. Taste the day before you complain about it. Taste an idea before you argue against it. I have the card now, grease stains and all. It hangs above my own stove, slightly crooked. My daughter asked me last week what it means. I handed her the spoon and said, \"You tell me.\""),
    ("mixed-bakery", "The night shift at the bakery starts when the town goes quiet. Ovens roar to life at eleven, and the first trays slide in by midnight. Flour dust hangs in the air like slow snow. The radio plays old songs nobody admits to loving. By three the racks hold bread for six restaurants and two schools. The drivers arrive yawning and leave with warm boxes. At five the front lights come on for early customers. The baker waves through the glass at the paper carrier. They have never spoken, but they are friends. Dawn is a private club, and everyone in it knows the rules."),
    ("mixed-toolbox", "Grandfather's toolbox smells of oil and cedar. Each tool has a story he tells with his hands. The plane with the chipped handle built three porches. The saw with the dark stain cut timber for the church roof. He lets me hold them, one at a time, like relics. Measure twice, he says, cut once, and forgive the wood its knots. Last spring we built a birdhouse from scraps. It leans a little to the left, like him. The wrens moved in before the paint dried. He calls it the best work he never finished. I keep the extra nails in my pocket, just in case."),
    ("mixed-chess", "The chess club meets in the back of the hardware store on Thursdays. Mr. Abara, who owns the place, clears the paint counter for boards. Players range from a nine year old terror to a retired judge. Nobody keeps official ratings, but everybody remembers upsets. The kid beat the judge twice last month, and the judge bought him a soda. New players get the corner table and a patient teacher. Phones stay in a shoebox by the register. The only sounds are clocks, sighs, and the rain on the tin roof. Win or lose, you shake hands and reset the pieces. The game, like the store, has everything you need and nothing extra."),
    ("mixed-journal", "A lighthouse keeper's journal from 1902 surfaced at an estate sale last June. The county archive bought it for forty dollars. Its pages record storms, shipwrecks, and long weeks of fog. One entry lists the supplies a family needed for a winter: flour, lamp oil, salt pork, and patience. Another describes painting the tower white in a single weekend. The keeper wrote one line about loneliness and crossed it out. Historians love the crossed out line most of all. The archive scanned every page and posted them free online. Students now quote the journal in term papers. The keeper signed each entry the same way. All lamps burning, he wrote. All lamps burning."),
]


def build_readability_corpus() -> None:
    lexicon = oracle.load_lexicon()
    missing: set[str] = set()
    for _, text in READABILITY_DOCS:
        for token in oracle.word_tokens(text):
            lowered = token.lower()
            if lowered.isdigit():
                continue
            if lowered not in lexicon:
                missing.add(lowered)
    if missing:
        print(f"lexicon is missing {len(missing)} words:", file=sys.stderr)
        for word in sorted(missing):
            print(word, file=sys.stderr)
        raise SystemExit(1)

    out_path = DATA_DIR / "readability_corpus.jsonl"
    with out_path.open("w", encoding="utf-8") as fh:
        for doc_id, text in READABILITY_DOCS:
            record = {
                "doc_id": doc_id,
                "text": text,
                "oracle_sentences": oracle.count_sentences(text),
                "oracle_words": oracle.count_words(text),
                "oracle_syllables": oracle.count_syllables(text, lexicon),
                "oracle_score": oracle.flesch_reading_ease(text, lexicon),
            }
            fh.write(json.dumps(record) + "\n")
    print(f"wrote {out_path} ({len(READABILITY_DOCS)} docs)")


def report_production_agreement() -> None:
    """Diagnostic only: how the shipped scorer tracks the oracle."""
    sys.path.insert(0, str(Path(__file__).parent.parent / "src"))
    from convoforge.textmetrics import flesch_reading_ease as production_fre

    lexicon = oracle.load_lexicon()
    deltas = []
    for doc_id, text in READABILITY_DOCS:
        want = oracle.flesch_reading_ease(text, lexicon)
        got = production_fre(text).flesch_score
        deltas.append((abs(got - want), doc_id, want, got))
    deltas.sort(reverse=True)
    within = sum(1 for d, *_ in deltas if d <= 2.0)
    print(f"production within +-2 on {within}/{len(deltas)} docs")
    for delta, doc_id, want, got in deltas[:10]:
        flag = "" if delta <= 2.0 else "  <-- outside band"
        print(f"  {doc_id:20s} oracle {want:7.2f} ours {got:7.2f} diff {delta:5.2f}{flag}")


# Section ids drive the simulated transport's behavior; see
# convoforge.simulate for the conventions. Expected outcomes by hand:
# 41 ok + the first dup consumed = 42 accepted, 4 hard sections
# discarded, the second dup rejected, 3 err sections failing to parse.
SYNTH_SECTION_IDS: list[str] = (
    [f"sec-ok-{n:03d}" for n in range(1, 42)]
    + ["sec-dup-a-001", "sec-dup-b-001"]
    + [f"sec-hard-{n:03d}" for n in range(1, 5)]
    + [f"sec-err-{n:03d}" for n in range(1, 4)]
)

EXPECTED_OUTCOME_COUNTS = {
    "accepted": 42,
    "discarded_readability": 4,
    "rejected_duplicate": 1,
    "generation_error": 3,
}

_SECTION_FILLER = (
    "The municipal archive keeps a folder of notes about this place. Most "
    "of the pages were typed decades ago, and a few corners carry pencil "
    "marks from clerks who checked the totals twice. Visitors ask about "
    "the old ledger more often than anything else, because the ledger "
    "lists every delivery that ever reached the loading dock. A volunteer "
    "reads one page aloud on the first Saturday of each month, and the "
    "reading usually draws a dozen listeners. Nothing in the folder is "
    "secret. The town council voted years ago to keep the entire "
    "collection open to the public, and the decision has never been "
    "challenged. Researchers still find small surprises in the margins, "
    "which is why the folder keeps growing year after year."
)


def synth_section_text(section_id: str) -> str:
    # The leading "Section <id>." token is what the simulator keys on.
    text = f"Section {section_id}. {_SECTION_FILLER}"
    assert len(text) >= 700, f"{section_id}: {len(text)} chars is under the ingest floor"
    return text


def build_synthesis_corpus() -> None:
    out_path = DATA_DIR / "corpus_50.jsonl"
    with out_path.open("w", encoding="utf-8") as fh:
        for section_id in SYNTH_SECTION_IDS:
            fh.write(json.dumps({"id": section_id, "text": synth_section_text(section_id)}) + "\n")
    print(f"wrote {out_path} ({len(SYNTH_SECTION_IDS)} sections)")


def freeze_golden_manifest() -> None:
    import tempfile

    sys.path.insert(0, str(Path(__file__).parent.parent / "src"))
    from convoforge.gateway import GatewayConfig, complete_chat, embed_texts
    from convoforge.pipeline import PipelineConfig, read_corpus_file, run_pipeline
    from convoforge.simulate import SimulatedModelTransport

    gateway = GatewayConfig(base_url="https://fixture.invalid", api_key_env="UNUSED")
    transport = SimulatedModelTransport()
    config = PipelineConfig()

    def chat(messages, temperature):
        return complete_chat(gateway, config.generation_model, messages, temperature,
                             config.max_output_tokens, transport).content

    def embed(texts):
        return embed_texts(gateway, config.embedding_model, texts, transport)

    records = read_corpus_file(DATA_DIR / "corpus_50.jsonl")
    with tempfile.TemporaryDirectory() as tmp:
        manifest = run_pipeline(config, records, chat, embed, out_dir=tmp)

    if manifest["counts"] != EXPECTED_OUTCOME_COUNTS:
        print(f"outcome counts diverge from the hand-derived expectation:", file=sys.stderr)
        print(f"  expected {EXPECTED_OUTCOME_COUNTS}", file=sys.stderr)
        print(f"  got      {manifest['counts']}", file=sys.stderr)
        raise SystemExit(1)

    out_path = DATA_DIR / "golden_manifest.json"
    with out_path.open("w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out_path} (counts {manifest['counts']})")


if __name__ == "__main__":
    DATA_DIR.mkdir(exist_ok=True)
    build_readability_corpus()
    report_production_agreement()
    build_synthesis_corpus()
    freeze_golden_manifest()
